//! A replicated key-value store on top of the P4CE log — the kind of
//! microsecond-scale application the paper's introduction motivates.
//!
//! Clients `PUT` through the leader; every member applies the decided
//! commands to its own copy of the store, in log order, so all copies
//! converge to the same state.
//!
//! ```sh
//! cargo run --release --example replicated_kv
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use netsim::{SimDuration, SimTime};
use p4ce::{ClusterBuilder, StateMachine};
use std::collections::BTreeMap;

/// A `PUT key value` command as replicated through the log.
struct KvCommand {
    key: String,
    value: String,
}

impl KvCommand {
    fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u16(self.key.len() as u16);
        buf.put_slice(self.key.as_bytes());
        buf.put_u16(self.value.len() as u16);
        buf.put_slice(self.value.as_bytes());
        buf.freeze()
    }

    fn decode(bytes: &[u8]) -> Option<KvCommand> {
        let klen = u16::from_be_bytes(bytes.get(0..2)?.try_into().ok()?) as usize;
        let key = String::from_utf8(bytes.get(2..2 + klen)?.to_vec()).ok()?;
        let off = 2 + klen;
        let vlen = u16::from_be_bytes(bytes.get(off..off + 2)?.try_into().ok()?) as usize;
        let value = String::from_utf8(bytes.get(off + 2..off + 2 + vlen)?.to_vec()).ok()?;
        Some(KvCommand { key, value })
    }
}

/// Each member's copy of the store.
#[derive(Default)]
struct KvStore {
    map: BTreeMap<String, String>,
    applied: u64,
}

impl StateMachine for KvStore {
    fn apply(&mut self, _seq: u64, payload: &[u8]) {
        if let Some(cmd) = KvCommand::decode(payload) {
            self.map.insert(cmd.key, cmd.value);
            self.applied += 1;
        }
    }
}

fn main() {
    let mut deployment = ClusterBuilder::new(3).build();

    // Install a store on every replica.
    for i in 0..3 {
        deployment
            .member_mut(i)
            .set_state_machine(Box::new(KvStore::default()));
    }

    // Let the cluster elect a leader and build its communication group.
    deployment.sim.run_until(SimTime::from_millis(60));
    assert!(deployment.leader().is_accelerated());

    // Issue a batch of PUTs through the leader, spaced 10 µs apart.
    let cities = [
        ("zurich", "8001"),
        ("neuchatel", "2000"),
        ("lausanne", "1003"),
        ("geneva", "1201"),
        ("bern", "3011"),
    ];
    for (i, (key, value)) in cities.iter().enumerate() {
        let cmd = KvCommand {
            key: (*key).to_owned(),
            value: (*value).to_owned(),
        };
        let payload = cmd.encode();
        deployment.with_member(0, move |leader, ops| {
            let accepted = leader.propose_value(payload, ops);
            assert!(accepted, "member 0 should be the leader");
        });
        deployment
            .sim
            .run_for(SimDuration::from_micros(10 * (i as u64 + 1)));
    }

    // Give the last write a moment to replicate and apply.
    deployment.sim.run_for(SimDuration::from_millis(1));

    println!("replicated key-value store over P4CE");
    for i in 1..3 {
        let member = deployment.member(i);
        let store = member
            .state_machine()
            .and_then(|sm| (sm as &dyn std::any::Any).downcast_ref::<KvStore>())
            .expect("store installed");
        println!("  replica {i}: {} keys applied", store.applied);
        for (k, v) in &store.map {
            println!("    {k} -> {v}");
        }
        assert_eq!(store.applied, cities.len() as u64);
    }
    println!("all replicas converged ✓");
}
