//! Invariant oracles: safety predicates evaluated over a snapshot of
//! every member's externally observable state, after every explored
//! step.
//!
//! The oracles mirror the safety arguments the paper inherits from Mu
//! (§III): decided values form one agreed sequence, entries apply exactly
//! once and in order, and — the RDMA-specific one — at any instant at
//! most the current epoch's leader holds write permission on a member's
//! log. That last check audits the *NIC-enforced* permission table
//! ([`rdma::HostMemory`]), not member bookkeeping, because the permission
//! table is what actually fences a deposed leader; it is also what makes
//! leadership unique (see [`OracleKind::SingleWriter`]).

use std::fmt;
use std::net::Ipv4Addr;

use netsim::{NodeId, Simulation};
use rdma::Host;
use replication::{Comm, Member};

use crate::chaos::ChaosRecorder;

/// Which invariant an oracle guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Members agree on decided payloads (common-prefix equality).
    Agreement,
    /// Members agree on decided sequence numbers (common-prefix
    /// equality).
    PrefixConsistency,
    /// Each member applies entries exactly once, in order, gap-free.
    ExactlyOnce,
    /// Only the current epoch's leader may hold write permission on a
    /// member's log region, and a fenced log (no epoch leader) grants
    /// none. This is the majority property too: a leader replicates only
    /// through WRITE grants on a majority of logs, each log has one epoch
    /// leader, and any two majorities share a log — so no two members
    /// can hold a majority at once.
    SingleWriter,
    /// In a multi-group deployment, a member applies only entries
    /// proposed to its own group (every explored proposal carries a
    /// 2-byte group tag). Catches switch-side cross-wiring, where a
    /// group's replicas replicate a co-resident group's log perfectly —
    /// agreeing with each other — and only the tag betrays the leak.
    GroupIsolation,
}

impl OracleKind {
    /// Stable identifier used in reproducer files.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Agreement => "agreement",
            OracleKind::PrefixConsistency => "prefix-consistency",
            OracleKind::ExactlyOnce => "exactly-once",
            OracleKind::SingleWriter => "single-writer",
            OracleKind::GroupIsolation => "group-isolation",
        }
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An oracle firing: which invariant broke, at which explored step, and
/// a human-readable account of the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Explored-step index (0-based) after which the check failed.
    pub step: u32,
    /// The invariant that broke.
    pub oracle: OracleKind,
    /// Evidence, for humans.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] at step {}: {}",
            self.oracle, self.step, self.detail
        )
    }
}

/// Everything the oracles need to know about one member, extracted
/// after a step. Pure data — snapshots compare and clone freely.
#[derive(Debug, Clone)]
pub struct MemberProbe {
    /// This member's address.
    pub ip: Ipv4Addr,
    /// Applied sequence numbers, in application order.
    pub applied_seqs: Vec<u64>,
    /// Applied payloads, in application order.
    pub applied_payloads: Vec<Vec<u8>>,
    /// The member's next-to-apply sequence number.
    pub next_apply_seq: u64,
    /// The leader whose epoch the current log grants serve.
    pub epoch_leader: Option<Ipv4Addr>,
    /// Cluster-member IPs holding WRITE on this member's log region,
    /// per the NIC's permission table (the switch, a mere conduit, is
    /// excluded).
    pub write_grants: Vec<Ipv4Addr>,
}

/// Snapshots every member of the cluster (or group) living at `members`
/// — the one way probes are taken, whoever audits them (explored
/// schedules after every step, chaos storms after every proposal tick).
pub fn probe_members<C: Comm>(sim: &Simulation, members: &[NodeId]) -> Vec<MemberProbe> {
    let hosts: Vec<&Host<Member<C>>> = members.iter().map(|&m| sim.node_ref(m)).collect();
    let ips: Vec<Ipv4Addr> = hosts.iter().map(|h| h.ip()).collect();
    (hosts.iter().enumerate())
        .map(|(i, host)| probe_from(host, i, &ips))
        .collect()
}

fn probe_from<C: Comm>(host: &Host<Member<C>>, i: usize, ips: &[Ipv4Addr]) -> MemberProbe {
    let app = host.app();
    let mut write_grants = Vec::new();
    if let Some(region) = app.log_region() {
        // Audit cluster members only: the switch is a conduit whose
        // grant is epoch-independent by design.
        for &ip in ips {
            if host.memory().effective_perms(region, ip).remote_write {
                write_grants.push(ip);
            }
        }
    }
    let (applied_seqs, applied_payloads) = app
        .state_machine()
        .and_then(|sm| (sm as &dyn std::any::Any).downcast_ref::<ChaosRecorder>())
        .map(|rec| (rec.seqs.clone(), rec.payloads.clone()))
        .unwrap_or_default();
    MemberProbe {
        ip: ips[i],
        applied_seqs,
        applied_payloads,
        next_apply_seq: app.next_apply_seq(),
        epoch_leader: app.epoch_leader(),
        write_grants,
    }
}

/// Runs every oracle over the snapshot; returns the first violation.
/// `step` is stamped into the returned [`Violation`].
pub fn check_all(probes: &[MemberProbe], step: u32) -> Option<Violation> {
    let fire = |oracle, detail| {
        Some(Violation {
            step,
            oracle,
            detail,
        })
    };
    if let Some(d) = single_writer(probes) {
        return fire(OracleKind::SingleWriter, d);
    }
    if let Some(d) = agreement(probes) {
        return fire(OracleKind::Agreement, d);
    }
    if let Some(d) = prefix_consistency(probes) {
        return fire(OracleKind::PrefixConsistency, d);
    }
    if let Some(d) = exactly_once(probes) {
        return fire(OracleKind::ExactlyOnce, d);
    }
    None
}

/// Runs every oracle over one *group's* snapshot of a multi-group
/// deployment: the group-isolation check (each applied payload's leading
/// two bytes must equal `group_tag`) first, then the whole single-group
/// suite within the group.
pub fn check_group(probes: &[MemberProbe], step: u32, group_tag: u16) -> Option<Violation> {
    if let Some(detail) = group_isolation(probes, group_tag) {
        return Some(Violation {
            step,
            oracle: OracleKind::GroupIsolation,
            detail,
        });
    }
    check_all(probes, step)
}

fn group_isolation(probes: &[MemberProbe], group_tag: u16) -> Option<String> {
    let want = group_tag.to_be_bytes();
    for (i, p) in probes.iter().enumerate() {
        for (k, payload) in p.applied_payloads.iter().enumerate() {
            if payload.len() < 2 || payload[..2] != want {
                return Some(format!(
                    "member {i} ({}) of group {group_tag} applied entry {k} \
                     tagged {:?} — another group's proposal leaked in",
                    p.ip,
                    payload.get(..2)
                ));
            }
        }
    }
    None
}

fn single_writer(probes: &[MemberProbe]) -> Option<String> {
    for (i, p) in probes.iter().enumerate() {
        for &g in &p.write_grants {
            match p.epoch_leader {
                Some(leader) if g == leader => {}
                Some(leader) => {
                    return Some(format!(
                        "member {i} ({}): {g} holds WRITE on the log, but the \
                         epoch leader is {leader}",
                        p.ip
                    ))
                }
                None => {
                    return Some(format!(
                        "member {i} ({}): {g} holds WRITE on a fenced log",
                        p.ip
                    ))
                }
            }
        }
    }
    None
}

fn agreement(probes: &[MemberProbe]) -> Option<String> {
    for a in 0..probes.len() {
        for b in (a + 1)..probes.len() {
            let n = probes[a]
                .applied_payloads
                .len()
                .min(probes[b].applied_payloads.len());
            if probes[a].applied_payloads[..n] != probes[b].applied_payloads[..n] {
                return Some(format!(
                    "members {a} and {b} disagree on decided payloads within \
                     their common prefix ({n} entries)"
                ));
            }
        }
    }
    None
}

fn prefix_consistency(probes: &[MemberProbe]) -> Option<String> {
    for a in 0..probes.len() {
        for b in (a + 1)..probes.len() {
            let n = probes[a]
                .applied_seqs
                .len()
                .min(probes[b].applied_seqs.len());
            if probes[a].applied_seqs[..n] != probes[b].applied_seqs[..n] {
                return Some(format!(
                    "members {a} and {b} disagree on decided sequence numbers \
                     within their common prefix ({n} entries)"
                ));
            }
        }
    }
    None
}

fn exactly_once(probes: &[MemberProbe]) -> Option<String> {
    for (i, p) in probes.iter().enumerate() {
        for (k, &seq) in p.applied_seqs.iter().enumerate() {
            if seq != k as u64 {
                return Some(format!(
                    "member {i} applied seq {seq} at position {k} (expected {k}): \
                     a skip or re-application"
                ));
            }
        }
        if p.next_apply_seq != p.applied_seqs.len() as u64 {
            return Some(format!(
                "member {i}: next_apply_seq {} does not match {} applied entries",
                p.next_apply_seq,
                p.applied_seqs.len()
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(i: u8) -> MemberProbe {
        MemberProbe {
            ip: Ipv4Addr::new(10, 0, 0, 1 + i),
            applied_seqs: vec![0, 1, 2],
            applied_payloads: vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()],
            next_apply_seq: 3,
            epoch_leader: Some(Ipv4Addr::new(10, 0, 0, 1)),
            write_grants: vec![Ipv4Addr::new(10, 0, 0, 1)],
        }
    }

    #[test]
    fn clean_snapshot_passes_every_oracle() {
        let probes = [probe(0), probe(1), probe(2)];
        assert_eq!(check_all(&probes, 7), None);
    }

    #[test]
    fn stale_grant_trips_single_writer() {
        let mut probes = [probe(0), probe(1)];
        probes[1].epoch_leader = Some(Ipv4Addr::new(10, 0, 0, 2));
        // 10.0.0.1's grant was never revoked.
        let v = check_all(&probes, 3).expect("must fire");
        assert_eq!(v.oracle, OracleKind::SingleWriter);
        assert_eq!(v.step, 3);
        assert!(v.detail.contains("10.0.0.1"));
    }

    #[test]
    fn a_grant_on_a_fenced_log_trips_single_writer() {
        let mut probes = [probe(0), probe(1)];
        // Member 1 fenced its log, and 10.0.0.1 still holds WRITE on it.
        probes[1].epoch_leader = None;
        let v = check_all(&probes, 5).expect("must fire");
        assert_eq!(v.oracle, OracleKind::SingleWriter);
        assert!(v.detail.contains("fenced"), "{}", v.detail);
        probes[1].write_grants.clear();
        assert_eq!(check_all(&probes, 5), None, "a fenced log without grants");
    }

    #[test]
    fn diverging_payloads_trip_agreement() {
        let mut probes = [probe(0), probe(1)];
        probes[1].applied_payloads[1] = b"X".to_vec();
        let v = check_all(&probes, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::Agreement);
    }

    #[test]
    fn diverging_seqs_trip_prefix_consistency() {
        let mut probes = [probe(0), probe(1)];
        probes[1].applied_seqs[2] = 9;
        // Payload prefixes still match, so agreement stays quiet and the
        // seq-level oracle reports.
        let v = check_all(&probes, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::PrefixConsistency);
    }

    #[test]
    fn gap_or_replay_trips_exactly_once() {
        let mut probes = [probe(0)];
        probes[0].applied_seqs = vec![0, 2];
        probes[0].applied_payloads = vec![b"a".to_vec(), b"c".to_vec()];
        probes[0].next_apply_seq = 3;
        let v = check_all(&probes, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::ExactlyOnce);

        probes[0].applied_seqs = vec![0, 1];
        probes[0].applied_payloads = vec![b"a".to_vec(), b"b".to_vec()];
        probes[0].next_apply_seq = 5;
        let v = check_all(&probes, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::ExactlyOnce);
    }

    #[test]
    fn foreign_group_tag_trips_group_isolation() {
        let tagged = |tag: u16, i: u8| {
            let mut p = probe(i);
            p.applied_payloads = (0u64..3)
                .map(|c| {
                    let mut v = tag.to_be_bytes().to_vec();
                    v.extend_from_slice(&c.to_be_bytes());
                    v
                })
                .collect();
            p
        };
        // A group whose members only applied its own proposals is clean.
        let probes = [tagged(1, 0), tagged(1, 1), tagged(1, 2)];
        assert_eq!(check_group(&probes, 4, 1), None);

        // The same members audited as group 0 — or with one foreign
        // entry — fire, even though they agree perfectly intra-group.
        let v = check_group(&probes, 4, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::GroupIsolation);
        assert_eq!(v.step, 4);
        let mut leaky = [tagged(0, 0), tagged(0, 1)];
        leaky[1].applied_payloads[2][..2].copy_from_slice(&7u16.to_be_bytes());
        let v = check_group(&leaky, 9, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::GroupIsolation);
        assert!(v.detail.contains("group 0"));

        // Too-short payloads cannot be attributed to any group.
        let mut short = [tagged(0, 0)];
        short[0].applied_payloads[0] = vec![0];
        assert!(check_group(&short, 0, 0).is_some());
    }

    #[test]
    fn check_group_still_runs_the_single_group_suite() {
        let tag = 2u16.to_be_bytes();
        let mut probes = [probe(0), probe(1)];
        for p in &mut probes {
            for payload in &mut p.applied_payloads {
                let mut v = tag.to_vec();
                v.extend_from_slice(payload);
                *payload = v;
            }
        }
        probes[1].applied_payloads[1] = [&tag[..], b"X"].concat();
        let v = check_group(&probes, 0, 2).expect("must fire");
        assert_eq!(v.oracle, OracleKind::Agreement);
    }
}
