//! Throw a seeded fault storm — loss, duplication, reordering, jitter,
//! corruption, and a transient partition — at a live P4CE cluster and
//! print what the chaos runner observed.
//!
//! ```sh
//! cargo run --release --example chaos_storm [seed] [members]
//! ```
//!
//! The runner itself asserts safety (identical decided prefixes, at
//! most one operational leader per view); this example surfaces the
//! liveness and fault accounting so you can watch recovery work.

use netsim::Tracer;
use p4ce_harness::{chaos, ChaosSpec, System};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be a u64"))
        .unwrap_or(0x0D15_EA5E);
    let members: usize = args
        .next()
        .map(|a| a.parse().expect("member count must be a usize"))
        .unwrap_or(3);

    let spec = ChaosSpec::seeded(seed, members);
    println!("chaos schedule (seed {seed:#x}, {members} members):");
    println!(
        "  loss={:.2}% dup={:.2}% reorder={:.2}% corrupt={:.3}%",
        spec.loss * 100.0,
        spec.duplicate * 100.0,
        spec.reorder * 100.0,
        spec.corrupt * 100.0,
    );
    println!(
        "  jitter≤{} reorder-window≤{} partition: m{} from {} to {}",
        spec.jitter,
        spec.reorder_window,
        spec.partition_member,
        spec.partition_from,
        spec.partition_until,
    );
    println!("  storm {} + drain {}", spec.storm, spec.drain);

    let r = chaos::run(&spec.on(System::P4ce, members), &Tracer::disabled());

    println!("\nstorm accounting:");
    println!(
        "  dropped={} (partition {}) duplicated={} corrupted={} parse-drops={}",
        r.frames_dropped,
        r.partition_dropped,
        r.frames_duplicated,
        r.frames_corrupted,
        r.parse_drops,
    );
    println!(
        "  recovery: timeout-retransmits={} nak-retransmits={}",
        r.timeout_retransmits, r.nak_retransmits,
    );
    println!("\ncluster health:");
    println!(
        "  proposals {}/{} accepted, decided {} at heal -> {} final",
        r.proposals_accepted, r.proposals_attempted, r.decided_at_heal, r.decided_final,
    );
    println!(
        "  shortest replica log {} entries, log hash {:#018x}",
        r.applied_min, r.log_hash,
    );
    assert!(
        r.decided_final > r.decided_at_heal,
        "the cluster must keep deciding after the heal"
    );
    println!("\nsurvived: agreement held and decisions resumed after the heal");
}
