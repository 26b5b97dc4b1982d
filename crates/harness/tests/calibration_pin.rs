//! The model's inputs are pinned: every row of EXPERIMENTS.md's
//! "Calibration constants" table must say what the code reads — the named
//! constant where the value is one, the constructor's default where a
//! test varies the field — `reproduce --check` applied to the inputs
//! instead of the outputs. A row nobody reads, or a constant whose row
//! went missing, fails too.

use netsim::{LinkSpec, SimDuration};
use p4ce_switch::{P4ceSwitchConfig, NUMRECV_WINDOW};
use rdma::{HostConfig, CM_COST, DEFAULT_RDMA_MTU, MAX_INFLIGHT, RETRANSMIT_TIMEOUT};
use replication::config::DEFAULT_LOG_SIZE;
use replication::member::{HEARTBEAT_PERIOD, PATH_FAILOVER_DELAY, PERMISSION_CHANGE_DELAY};
use replication::ClusterConfig;
use std::net::Ipv4Addr;
use tofino::SwitchConfig;

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

/// `(constant, value)` of every row of the calibration table.
fn rows() -> Vec<(&'static str, &'static str)> {
    let section = EXPERIMENTS
        .split("\n## ")
        .find(|s| s.starts_with("Calibration constants"))
        .expect("EXPERIMENTS.md has a Calibration constants section");
    (section.lines().filter(|l| l.starts_with('|')))
        .skip(2) // header and rule
        .map(|l| {
            let mut cells = l.split('|').map(str::trim).skip(1);
            (
                cells.next().expect("constant"),
                cells.next().expect("value"),
            )
        })
        .collect()
}

/// The number a value cell leads with, and the text after it.
fn leading(cell: &str) -> (f64, &str) {
    let end = cell
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(cell.len());
    let number = cell[..end]
        .parse()
        .expect("a value cell leads with a number");
    (number, cell[end..].trim_start())
}

/// A value cell that is a count of `unit`s.
fn count(cell: &str, unit: &str) -> f64 {
    let (n, rest) = leading(cell);
    assert!(rest.starts_with(unit), "{cell:?} is not in {unit}");
    n
}

/// A value cell that is a duration, in nanoseconds.
fn nanos(cell: &str) -> f64 {
    let (n, rest) = leading(cell);
    let scale = match rest {
        r if r.starts_with("ns") => 1.0,
        r if r.starts_with("µs") => 1e3,
        r if r.starts_with("ms") => 1e6,
        _ => panic!("{cell:?} is not a duration"),
    };
    (n * scale).round()
}

#[test]
fn calibration_table_says_what_the_code_reads() {
    let ip = Ipv4Addr::new(10, 0, 0, 1);
    let host = HostConfig::new(ip);
    let switch = SwitchConfig::tofino1(ip);
    let program = P4ceSwitchConfig::default();
    let link = LinkSpec::default();
    let ns = |d: SimDuration| d.as_nanos() as f64;

    let rows = rows();
    for &(constant, value) in &rows {
        // What the table says, and what the code reads.
        let (table, code) = match constant {
            "leader CPU per verb (post / reap)" => {
                assert_eq!(host.post_cost, host.reap_cost, "one row for both");
                (nanos(value), ns(host.post_cost))
            }
            "link rate" => (
                count(value, "Gbit/s"),
                link.bandwidth.bytes_per_sec() * 8.0 / 1e9,
            ),
            "RDMA MTU" => {
                assert_eq!(host.mtu, DEFAULT_RDMA_MTU, "the host reads the constant");
                (count(value, "B"), DEFAULT_RDMA_MTU as f64)
            }
            "in-flight cap per connection" => (count(value, "requests"), MAX_INFLIGHT as f64),
            "NumRecv window" => (count(value, "PSNs"), NUMRECV_WINDOW as f64),
            // The paper gives a rate; the model charges the nearest whole
            // number of nanoseconds per packet.
            "switch parser rate" => ((1e3 / count(value, "Mpps")).round(), ns(switch.parser_cost)),
            "heartbeat period" => (nanos(value), ns(HEARTBEAT_PERIOD)),
            "switch reconfiguration" => (nanos(value), ns(program.reconfig_delay)),
            "permission change" => (nanos(value), ns(PERMISSION_CHANGE_DELAY)),
            "RDMA transport timeout" => (nanos(value), ns(RETRANSMIT_TIMEOUT)),
            "path fail-over penalty" => (nanos(value), ns(PATH_FAILOVER_DELAY)),
            "CM slow-path handling" => (nanos(value), ns(CM_COST)),
            "replicated log ring" => {
                let log_size = ClusterConfig::new(&[ip, ip]).log_size;
                assert_eq!(log_size, DEFAULT_LOG_SIZE, "the default is the constant");
                assert!(log_size.is_power_of_two(), "{log_size} B");
                // What the leader writes at line rate on a reader position
                // two heartbeat periods old must fit.
                let stale = 2.0 * HEARTBEAT_PERIOD.as_secs_f64() * link.bandwidth.bytes_per_sec();
                assert!(log_size as f64 >= stale, "{log_size} B < {stale} B");
                (count(value, "MiB"), (log_size >> 20) as f64)
            }
            other => panic!("calibration row {other:?} is pinned to no constant: add it here"),
        };
        assert_eq!(table, code, "{constant}: the table says {value:?}");
    }
    let mut constants: Vec<&str> = rows.iter().map(|&(c, _)| c).collect();
    constants.sort_unstable();
    constants.dedup();
    assert_eq!(constants.len(), 13, "one row per constant: {constants:?}");
}
