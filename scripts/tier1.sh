#!/usr/bin/env bash
# Tier-1 gate: everything that must be green before a merge.
#
#   ./scripts/tier1.sh           # build + tests + lints
#
# The test step mirrors CI exactly: the root package's integration
# suites (consensus safety, soak, chaos, determinism) plus every crate's
# unit tests, the benchmark package against the current library API,
# then clippy with warnings promoted to errors, then formatting.
set -euo pipefail
cd "$(dirname "$0")/.."

# The guards, before anything is built. A row reads
#   N | grep flags | paths | pattern | ... | reason
# and fails unless each pattern matches exactly N times under the paths
# (counted with grep -o; N = 0 says the name is gone), and each path must
# exist. '{}' in the reason stands for the pattern; a '==>' line is a
# heading.
tab=$'\t'
while IFS= read -r row; do
  case $row in
    '' | '#'*) continue ;;
    '==> '*) echo "$row"; continue ;;
  esac
  IFS=$tab read -ra col <<<"${row// | /$tab}"
  n=${col[0]} flags=${col[1]} paths=${col[2]} reason=${col[-1]}
  for path in $paths; do
    [ -e "$path" ] || { echo "tier-1: $path is gone, so a guard row on it checks nothing" >&2; exit 1; }
  done
  for pat in "${col[@]:3:${#col[@]}-4}"; do
    # $flags and $paths split into words, and the paths glob.
    if [ "$(grep $flags -o -e "$pat" $paths | wc -l)" -ne "$n" ]; then
      grep $flags -e "$pat" $paths >&2 || true
      echo "tier-1: ${reason//'{}'/"$pat"}" >&2; exit 1
    fi
  done
done <<'ROWS'
==> one member: the decision half is defined once
1 | -rnw | crates/*/src | fn heartbeat_tick | fn update_view | fn fence_log | fn finish_deferred_accept | fn record_decision | fn arrival_tick | struct HbLink | '{}' must be defined exactly once under crates/*/src

==> replicas poll their log: one decode walk, no payload-carrying delivery
0 | -rn | crates/*/src | drain_payload | drain_payload is gone; LogReader::walk is the one decoding walk

==> one pipeline through the switch: two data-plane hooks, one emit site
0 | -rn | crates/*/src | ingress_view | ViewVerdict | fn patch_frame | fn instantiate | fn parse_with_template | fn parse_view_cached | RawForward | '{}' is gone; stages record header deltas and the deparser stamps them
# The deparser and the control plane's send_packet: a third send is a second emit path.
2 | -n | crates/tofino/src/switch.rs | ctx\.send( | crates/tofino/src/switch.rs must call ctx.send( exactly twice (deparser + control-plane send_packet)

==> one yardstick, one front door: no second measurement path, one run entry per scenario kind
0 | -rnE | crates/*/src | bench_trajectory | fn run_point_metered | fn run_point_traced_with | fn run_sharded_point_metered | _parallel\( | fn run_p4ce | fn run_mu[_(] | fn replay_traced | fn run_schedule_traced | histogram_latency | '{}' is gone; a run takes what to observe as an argument, sweep() is the one pool, benchmark/ the one yardstick

==> one encoder on the host: one frame constructor, one queue site, no unearned cache, no second bench path
0 | -rn | crates/*/src | PayloadCrcCache | to_frame_cached | ack_template | use_histogram | TraceSink | fn assert_prefix_agreement | '{}' is gone; RocePacket::to_frame is the one encoder, LatencyRecorder records exactly, chaos audits with explore::oracle::check_all
0 | -rn | vendor/bytes/src | fn identity | Bytes::identity is gone; the stand-in exposes nothing upstream bytes lacks but try_unsplit, the fast path of BytesMut::unsplit (its one deliberate addition)
1 | -n | crates/rdma/src/host.rs | \.to_frame() | crates/rdma/src/host.rs must call .to_frame() exactly once (HostCore::frame)
1 | -n | crates/rdma/src/host.rs | tx_fifo\.push_back( | crates/rdma/src/host.rs must call tx_fifo.push_back( exactly once (HostCore::enqueue)

==> public means called, settable means set: what the caller census retired stays retired
0 | -rn | crates/*/src | ProtocolTiming | fn render_prometheus | fn sample_registry | fn member_rx_capacity | fn program_mut | fn cpu_work | '{}' is gone; a function or setter comes back together with its caller (EXPERIMENTS E17)
0 | -n | crates/netsim/src/trace.rs | spare | the trace ring has no chunk-recycling path; nothing clears a ring
0 | -n | crates/p4ce-switch/src/program.rs | % 32 | no '% 32' in the gather; GroupSpec::decode admits at most MAX_REPLICAS = 32 endpoints, one NumRecv bit each
0 | -n | crates/rdma/src/host.rs | 14 + 20 | crates/rdma/src/host.rs spells no header offset; rdma::wire::peek_opcode is the one opcode peek

==> one shape under the harness: a deployment is a simulation plus groups of nodes
0 | -rn | crates/harness/src | enum Target | struct Victim | Target::Single | Target::Sharded | '{}' is gone; drivers take (sim, groups) and a deployment type is destructured where it is built (EXPERIMENTS E18)
1 | -rn | crates/harness/src | fn fnv1a | FNV-1a-64 is defined exactly once under crates/harness/src (shard::fnv1a64)
0 | -rn | crates/core/src | SwitchConfig::tofino1( | crates/core/src builds no switch; ShardedClusterBuilder::build calls the one assembly
# The fabric and the optional backup, both inside ClusterBuilder::assemble (its body is checked below).
2 | -n | crates/replication/src/deploy.rs | SwitchConfig::tofino1( | crates/replication/src/deploy.rs spells SwitchConfig::tofino1( exactly twice, both inside the one assembly

==> a multicast copy costs a header: one event per pipeline pass, one payload per packet, an ICRC only when somebody reads it
# The three-timer walk and the eager serializer are references now and live with the tests that use them
# (crates/tofino/tests/fused_pass.rs, crates/rdma/tests/patch_props.rs).
0 | -rn | crates/*/src | TK_EGRESS | fn icrc_compute | fn patch_covered | fn crc32_shift | fn crc32_combine | crc32_two_lane_raw | new_verified | tx_staged | '{}' is gone; the pass charges the egress parser from the ingress, a frame derives its ICRC when read, and no clean path hashes a payload
1 | -n | crates/rdma/src/wire.rs | fn icrc_trailer | an ICRC is computed in one function, rdma::wire::icrc_trailer (the other CRC32_INIT is the public crc32)
2 | -rn | crates/*/src | crc32_slice8_raw(CRC32_INIT | an ICRC is computed in one function, rdma::wire::icrc_trailer (the other CRC32_INIT is the public crc32)
2 | -rn | crates/*/src | Frame::framed( | a frame with a head is built at two sites, both in rdma::wire (to_frame, to_template of raw bytes)

==> two of a kind: one latency distribution, one slab, one ALU minimum, one group teardown, one request in flight
0 | -rn | crates/*/src | HistogramStats | struct Stash | fn hw_min | SwitchConnecting | vacant: | '{}' is gone; LatencyStats is the one latency distribution, parked things live in netsim::Slab, the gather folds with tofino::alu_min, SwitchComm says what serves (Path) and what is pending separately (EXPERIMENTS E20)
# drop_group's body is checked below.
1 | -n | crates/p4ce-switch/src/program.rs | bcast_table\.remove( | self\.groups\.remove( | crates/p4ce-switch/src/program.rs spells '{}' exactly once, inside drop_group — the only code that removes a group
1 | -rn | crates/*/src | fn alu_min | 'fn alu_min' is defined exactly once under crates/*/src (tofino::registers); min_update and the credit fold both call it

==> a write lands once: checked per packet, placed once per message, read off the frame, single-threaded refcounts
0 | -nE | crates/rdma/src/host.rs | (^|[^_[:alnum:]])remote_write\( | crates/rdma/src/host.rs calls remote_write( nowhere; the receive path is check (check_write) + park + place (HostCore::land, EXPERIMENTS E21)
0 | -rn | vendor/bytes/src | std::sync | vendor/bytes/src imports nothing from std::sync; Bytes keeps its buffer behind Rc (every simulation runs on one thread)

==> a timeline is read off the trace: no sampler, no cadence knob, one read of the records
0 | -rn | crates/*/src | SampledRegistry | SampleSeries | advance_tick | DEFAULT_SERIES_CAPACITY | pub cadence | '{}' is gone; the failover timeline is a view over the run's trace records (EXPERIMENTS E22)

==> a planted bug is a fault the simulation carries: no mutation knob in shipping configuration, one explorer mode
0 | -rn | crates/*/src | pub skip_epoch_revoke | fn skip_epoch_revoke | pub crosswire_groups | fn crosswire_mutation | fn single_writer_mutation | sharded-mutation-check | run_sharded_mutation_check | '{}' is gone; a bug is planted with Simulation::plant(netsim::Planted) and explore::MUTATIONS says where it is caught (EXPERIMENTS E23)
3 | -rn | crates/replication/src crates/p4ce-switch/src | Planted:: | 'Planted::' appears exactly three times under crates/{replication,p4ce-switch}/src: the member's forgotten fence and the switch's two cross-wiring parts
1 | -rn | crates/*/src | fn plant( | 'fn plant' is defined exactly once (netsim::Simulation::plant)

==> counters are read where they are kept: each layer's stats struct, no string-keyed copy
0 | -rn | crates/*/src | MetricsRegistry | LatencySummary | group_scoped | fn register_into | fn register_groups_into | fn register_layers | render_diff | set_counter( | '{}' is gone; a run hands back each layer's own stats (harness::Layers) and nothing copies them under string names (EXPERIMENTS E24)

==> one home for every random draw: the simulator owns its generator, a trace kind is one table row, a queue pair recovers one way
0 | -nE | Cargo.toml crates/*/Cargo.toml | ^[[:space:]]*rand([.[:space:]]|=) | no workspace manifest depends on rand; draws come from netsim::rng
1 | -rn | crates/*/src | 6364136223846793005 | 0xbf58_476d_1ce4_e5b9 | '{}' appears exactly once under crates/*/src (netsim::rng: lcg_step, mix64)
0 | -n | crates/netsim/src/trace.rs | const K_ | no kind-byte constants in netsim/src/trace.rs; KINDS names each kind and its fields once
0 | -rnE | crates/*/src | pub struct (FifoScheduler|ReplayScheduler) | the sample schedulers live in netsim's tests; the explorer's GuidedScheduler is the replay reproducers use
1 | -n | crates/rdma/src/host.rs | RecoveryAction::Fatal | crates/rdma/src/host.rs matches RecoveryAction::Fatal exactly once (HostCore::recover serves the NAK and the timeout)

==> an option is something somebody sets: a value nothing varies is the paper's named constant, a flag that repeats another is gone
0 | -n | crates/rdma/src/host.rs | pub max_inflight | pub cm_cost | pub retransmit_timeout | pub retry_limit | pub seed | '{}' is not a HostConfig field; MAX_INFLIGHT, CM_COST, RETRANSMIT_TIMEOUT and RETRY_LIMIT are rdma::host constants, the key/PSN seed is the address (EXPERIMENTS E26)
0 | -rn | crates/replication/src | pub heartbeat_period | pub failure_threshold | pub permission_change_delay | pub path_failover_delay | '{}' is not a ClusterConfig/MemberConfig field; the paper's timing is a replication::member constant (EXPERIMENTS E26)
0 | -rn | crates/p4ce-switch/src | pub numrecv_window | pub credit_stale_scatters | '{}' is not a P4ceSwitchConfig field; NUMRECV_WINDOW and CREDIT_STALE_SCATTERS are constants (EXPERIMENTS E26)
0 | -nF | crates/harness/src/bin/p4ce-explore.rs | "--max-schedules" | "--seed" | p4ce-explore takes {} no more: --seeds names the seeds, --schedules is each exploring mode's budget (EXPERIMENTS E26)

==> a log that recycles: a 4 MiB ring by default, one reap per watched write message
0 | -rn | crates/replication/src | 16 << 20 | the log is a ring the replicas follow; its default is DEFAULT_LOG_SIZE (4 MiB), not 16 MiB (EXPERIMENTS E27)

==> a ring is a position: the writer, its readers and the heartbeat word count bytes of history
0 | -rn | crates/replication/src | struct Span | SPANS_PER_LAP | fn oldest_seq | fn behind | lap_start | '{}' is gone; the writer and each reader keep one byte position, laps × capacity + offset (EXPERIMENTS E28)

==> a switch group ends one way: drop_group frees it, gid_of_leader names it
0 | -rnF | crates/*/src | GroupRetire | retire_group | retire_comm | fn retire( | fn group_id( | '{}' is gone; a group leaves the switch through drop_group only and P4ceProgram::gid_of_leader names a leader's group (EXPERIMENTS E29)

==> a trace record costs its content: one variable-width format, no fixed record, no format limit
0 | -nF | crates/netsim/src/trace.rs | struct BinRecord | T_NS_LIMIT | fields: [u64; 4] | more than 255 distinct trace labels | '{}' is gone; a trace record is a kind byte, varint node id, zigzag time delta and the fields its KINDS row names (EXPERIMENTS E30)

==> a trace kind is said once: one trace_kinds! row declares its variant, export name, fields and their codecs
# Its library part is checked below.
1 | -rn | crates/*/src | pub enum TraceEvent | 'pub enum TraceEvent' is spelled exactly once under crates/*/src, inside the trace_kinds! macro (EXPERIMENTS E33)

==> the model checker keeps one of each: one oracle per safety clause, one reproducer format
# The reproducer half is a library-part check below.
0 | -rn | crates/*/src | PrefixConsistency | fn prefix_consistency | '{}' is gone; exactly-once (seqs 0..n at every member) implies that any two seq prefixes agree (EXPERIMENTS E34)
ROWS

echo "==> what a row cannot say: a path that is gone, a count at most one, a function or type body, a file's library part"
# replicas poll their log
if sed -n '/^enum Delivery {/,/^}/p' crates/rdma/src/host.rs | sed -n '/RemoteWrite {/,/}/p' | grep -n 'payload'; then
  echo "tier-1: Delivery::RemoteWrite must not carry a payload (it would pin the received frame)" >&2; exit 1
fi
# one yardstick, one front door
[ ! -e crates/bench/src/bin ] || { echo "tier-1: crates/bench/src/bin is gone; p4ce-bench is one binary with subcommands" >&2; exit 1; }
if ls BENCH_*.json >/dev/null 2>&1; then
  echo "tier-1: no BENCH_*.json at the repo root; numbers come from benchmark/run.sh" >&2; exit 1
fi
# one encoder on the host
[ ! -e crates/bench/benches ] || { echo "tier-1: crates/bench/benches is gone; the kernels are timed by benchmark/src/kernels.rs" >&2; exit 1; }
# one shape under the harness
[ "$(sed -n '/pub fn assemble(/,/^    }$/p' crates/replication/src/deploy.rs | grep -c 'SwitchConfig::tofino1(')" -eq 2 ] \
  || { echo "tier-1: crates/replication/src/deploy.rs spells SwitchConfig::tofino1( exactly twice, both inside the one assembly" >&2; exit 1; }
# a multicast copy costs a header
for body in 'pub fn to_frame(' 'pub fn stamp('; do
  if sed -n "/$body/,/^    }\$/p" crates/rdma/src/wire.rs | grep -n 'to_vec()\|Vec::\|vec!\|crc32\|BytesMut'; then
    echo "tier-1: '$body' in crates/rdma/src/wire.rs writes a head and shares a payload: no buffer, no copy of the frame, no checksum over it" >&2; exit 1
  fi
done
if sed -n '/^pub(crate) enum EventKind {/,/^}/p' crates/netsim/src/sim.rs | grep -n 'Frame,'; then
  echo "tier-1: EventKind carries a slot, not a Frame; a timer entry must not grow with the frame head" >&2; exit 1
fi
# two of a kind
for once in 'bcast_table\.remove(' 'self\.groups\.remove('; do
  [ "$(sed -n '/fn drop_group(/,/^    }$/p' crates/p4ce-switch/src/program.rs | grep -c "$once")" -eq 1 ] \
    || { echo "tier-1: crates/p4ce-switch/src/program.rs spells '$once' exactly once, inside drop_group — the only code that removes a group" >&2; exit 1; }
done
# a write lands once
[ "$(grep -c '\.to_packet()' crates/rdma/src/host.rs)" -le 1 ] || { echo "tier-1: crates/rdma/src/host.rs calls .to_packet() at most once (read requests); the write path reads the RoceView" >&2; exit 1; }
# a timeline is read off the trace
[ ! -e crates/netsim/src/timeseries.rs ] || { echo "tier-1: crates/netsim/src/timeseries.rs is gone; Timeline and its exports live in netsim::trace" >&2; exit 1; }
[ "$(sed -n '/^fn kill_and_attribute(/,/^}$/p' crates/harness/src/failover.rs | grep -c '\.records()')" -eq 1 ] \
  || { echo "tier-1: kill_and_attribute reads the trace once, after the run (handle.records()); a second read is a second recording" >&2; exit 1; }
# a planted bug is a fault the simulation carries, and a reproducer has one format:
# the boolean-per-bug keys appear in no library code (tests may spell them to see them refused).
legacy=$(find crates/*/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { exit } /skip_epoch_revoke|crosswire_groups/ { print FILENAME ":" FNR ": " $0 }' {} \;)
if [ -n "$legacy" ]; then
  echo "$legacy" >&2
  echo "tier-1: skip_epoch_revoke / crosswire_groups appear in no library code; a reproducer names its bug with planted=NAME, and from_repro refuses a key to_repro does not write (EXPERIMENTS E34)" >&2; exit 1
fi
# counters are read where they are kept
[ ! -e crates/netsim/src/metrics.rs ] || { echo "tier-1: crates/netsim/src/metrics.rs is gone; HostStats, SwitchStats, P4ceSwitchStats/GroupStats and MemberStats are the counter pipe" >&2; exit 1; }
# one home for every random draw
[ ! -e vendor/rand ] || { echo "tier-1: vendor/rand is gone; netsim::rng is the one generator (EXPERIMENTS E25)" >&2; exit 1; }
# a log that recycles
grep -q '^pub const DEFAULT_LOG_SIZE: usize = 4 << 20;' crates/replication/src/config.rs \
  || { echo "tier-1: crates/replication/src/config.rs defines DEFAULT_LOG_SIZE as 4 << 20" >&2; exit 1; }
# The watched write path charges reap_cost once, after the early return for a message's non-last packets.
notify=$(sed -n '/fn notify_remote_write(/,/^    }$/p' crates/rdma/src/host.rs)
[ "$(grep -c 'reap_cost' <<<"$notify")" -eq 1 ] \
  && [ "$(grep -n 'if !last' <<<"$notify" | cut -d: -f1)" -lt "$(grep -n 'reap_cost' <<<"$notify" | cut -d: -f1)" ] \
  && ! sed -n '/fn execute_write(/,/^    }$/p' crates/rdma/src/host.rs | grep -q 'reap_cost' \
  || { echo "tier-1: a watched remote write is charged reap_cost at one site, HostCore::notify_remote_write, at the message's last packet (EXPERIMENTS E27)" >&2; exit 1; }

echo "==> a trace is read where it lies: a Records snapshot of the ring's bytes, decoded as it is walked"
# Library code only: everything before a file's first #[cfg(test)].
held=$(find crates/*/src -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ { exit } /Vec<TraceRecord>|&\[TraceRecord\]/ { print FILENAME ":" FNR ": " $0 }' {} \;)
if [ -n "$held" ]; then
  echo "$held" >&2
  echo "tier-1: a trace is handed out as netsim::Records and walked; no decoded Vec<TraceRecord> or &[TraceRecord] in library code (EXPERIMENTS E31)" >&2; exit 1
fi

echo "==> a snapshot shares what is sealed: records() copies the open chunk only"
# Library code only: everything before the file's first #[cfg(test)].
lib=$(awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/netsim/src/trace.rs)
if grep -F 'bytes: Vec<u8>' <<<"$lib"; then
  echo "tier-1: a Records snapshot holds the ring's chunks, shared, not one whole-ring bytes: Vec<u8> (EXPERIMENTS E32)" >&2; exit 1
fi
records=$(sed -n '/^    pub fn records(&self) -> Records {$/,/^    }$/p' crates/netsim/src/trace.rs)
[ -n "$records" ] \
  && ! grep -E 'extend_from_slice|\.to_vec\(\)|\.clone\(\)' <<<"$records" | grep -vE 'ring\.(open|labels)\.clone\(\)' \
  || { echo "tier-1: TraceHandle::records shares each sealed chunk by reference count and copies only the open one (EXPERIMENTS E32)" >&2; exit 1; }
# A trace kind is said once: no hand-written decode arm, no field name compared as a string.
if grep -F -e '=> TraceEvent::' -e '== "wr_id"' <<<"$lib"; then
  echo "tier-1: a trace kind is one trace_kinds! row; no hand-written => TraceEvent:: arm and no == \"wr_id\" before trace.rs's tests (EXPERIMENTS E33)" >&2; exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (root integration suites)"
cargo test -q

echo "==> cargo test -q --workspace (crate unit tests)"
cargo test -q --workspace --exclude p4ce-repro
# vendor/ is outside the workspace; bytes is the one stand-in with behaviour of its own to pin.
cargo test -q -p bytes

echo "==> sharded-KV smoke (quick groups sweep on two workers)"
cargo run --release -p p4ce-bench -- groups --quick --threads 2 >/dev/null

echo "==> benchmark package (own workspace): unit tests + quick suite"
# benchmark/src/sut.rs imports the library's public surface; a moved or
# re-typed symbol must fail here, not in the acceptance pipeline.
cargo test -q --release --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick >/dev/null

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> benchmark/ and BENCHMARK.json are as committed"
# cargo rewrites the frozen benchmark/Cargo.lock on every benchmark build
# (the library's dependency graph moved in PR 13); put it back.
git checkout -- benchmark/Cargo.lock
if [ -n "$(git status --porcelain -- benchmark BENCHMARK.json)" ]; then
  git status --short -- benchmark BENCHMARK.json >&2
  echo "tier-1: the benchmark is frozen; nothing under benchmark/ nor BENCHMARK.json may differ from HEAD" >&2; exit 1
fi

echo "tier-1: all green"
