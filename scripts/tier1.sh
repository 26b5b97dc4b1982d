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

echo "==> one member: the decision half is defined once"
for item in 'fn heartbeat_tick' 'fn update_view' 'fn fence_log' 'fn finish_deferred_accept' 'fn record_decision' 'fn arrival_tick' 'struct HbLink'; do
  [ "$(grep -rhow "$item" crates/*/src | wc -l)" -eq 1 ] || { echo "tier-1: '$item' must be defined exactly once under crates/*/src" >&2; exit 1; }
done

echo "==> replicas poll their log: one decode walk, no payload-carrying delivery"
if grep -rn 'drain_payload' crates/*/src; then
  echo "tier-1: drain_payload is gone; LogReader::walk is the one decoding walk" >&2; exit 1
fi
if sed -n '/^enum Delivery {/,/^}/p' crates/rdma/src/host.rs | sed -n '/RemoteWrite {/,/}/p' | grep -n 'payload'; then
  echo "tier-1: Delivery::RemoteWrite must not carry a payload (it would pin the received frame)" >&2; exit 1
fi

echo "==> one pipeline through the switch: two data-plane hooks, one emit site"
for gone in 'ingress_view' 'ViewVerdict' 'fn patch_frame' 'fn instantiate' 'fn parse_with_template' 'fn parse_view_cached' 'RawForward'; do
  if grep -rn "$gone" crates/*/src; then
    echo "tier-1: '$gone' is gone; stages record header deltas and the deparser stamps them" >&2; exit 1
  fi
done
# The deparser and the control plane's send_packet: a third send is a second emit path.
[ "$(grep -c 'ctx\.send(' crates/tofino/src/switch.rs)" -eq 2 ] || { echo "tier-1: crates/tofino/src/switch.rs must call ctx.send( exactly twice (deparser + control-plane send_packet)" >&2; exit 1; }

echo "==> one yardstick, one front door: no second measurement path, one run entry per scenario kind"
for gone in 'bench_trajectory' 'fn run_point_metered' 'fn run_point_traced_with' 'fn run_sharded_point_metered' '_parallel\(' 'fn run_p4ce' 'fn run_mu[_(]' 'fn replay_traced' 'fn run_schedule_traced' 'histogram_latency'; do
  if grep -rnE "$gone" crates/*/src; then
    echo "tier-1: '$gone' is gone; a run takes what to observe as an argument, sweep() is the one pool, benchmark/ the one yardstick" >&2; exit 1
  fi
done
[ ! -e crates/bench/src/bin ] || { echo "tier-1: crates/bench/src/bin is gone; p4ce-bench is one binary with subcommands" >&2; exit 1; }
if ls BENCH_*.json >/dev/null 2>&1; then
  echo "tier-1: no BENCH_*.json at the repo root; numbers come from benchmark/run.sh" >&2; exit 1
fi

echo "==> one encoder on the host: one frame constructor, one queue site, no unearned cache, no second bench path"
for gone in 'PayloadCrcCache' 'to_frame_cached' 'ack_template' 'use_histogram' 'TraceSink' 'fn assert_prefix_agreement'; do
  if grep -rn "$gone" crates/*/src; then
    echo "tier-1: '$gone' is gone; RocePacket::to_frame is the one encoder, LatencyRecorder records exactly, chaos audits with explore::oracle::check_all" >&2; exit 1
  fi
done
if grep -rn 'fn identity' vendor/bytes/src; then
  echo "tier-1: Bytes::identity is gone; the stand-in exposes nothing upstream bytes lacks but try_unsplit, the fast path of BytesMut::unsplit (its one deliberate addition)" >&2; exit 1
fi
[ "$(grep -c '\.to_frame()' crates/rdma/src/host.rs)" -eq 1 ] || { echo "tier-1: crates/rdma/src/host.rs must call .to_frame() exactly once (HostCore::frame)" >&2; exit 1; }
[ "$(grep -c 'tx_fifo\.push_back(' crates/rdma/src/host.rs)" -eq 1 ] || { echo "tier-1: crates/rdma/src/host.rs must call tx_fifo.push_back( exactly once (HostCore::enqueue)" >&2; exit 1; }
[ ! -e crates/bench/benches ] || { echo "tier-1: crates/bench/benches is gone; the kernels are timed by benchmark/src/kernels.rs" >&2; exit 1; }

echo "==> public means called, settable means set: what the caller census retired stays retired"
for gone in 'ProtocolTiming' 'fn render_prometheus' 'fn sample_registry' 'fn member_rx_capacity' 'fn program_mut' 'fn cpu_work'; do
  if grep -rn "$gone" crates/*/src; then
    echo "tier-1: '$gone' is gone; a function or setter comes back together with its caller (EXPERIMENTS E17)" >&2; exit 1
  fi
done
if grep -n 'spare' crates/netsim/src/trace.rs; then
  echo "tier-1: the trace ring has no chunk-recycling path; nothing clears a ring" >&2; exit 1
fi
if grep -n '% 32' crates/p4ce-switch/src/program.rs; then
  echo "tier-1: no '% 32' in the gather; GroupSpec::decode admits at most MAX_REPLICAS = 32 endpoints, one NumRecv bit each" >&2; exit 1
fi
if grep -n '14 + 20' crates/rdma/src/host.rs; then
  echo "tier-1: crates/rdma/src/host.rs spells no header offset; rdma::wire::peek_opcode is the one opcode peek" >&2; exit 1
fi

echo "==> one shape under the harness: a deployment is a simulation plus groups of nodes"
for gone in 'enum Target' 'struct Victim' 'Target::Single' 'Target::Sharded'; do
  if grep -rn "$gone" crates/harness/src; then
    echo "tier-1: '$gone' is gone; drivers take (sim, groups) and a deployment type is destructured where it is built (EXPERIMENTS E18)" >&2; exit 1
  fi
done
[ "$(grep -rho 'fn fnv1a' crates/harness/src | wc -l)" -eq 1 ] || { echo "tier-1: FNV-1a-64 is defined exactly once under crates/harness/src (shard::fnv1a64)" >&2; exit 1; }
if grep -rn 'SwitchConfig::tofino1(' crates/core/src; then
  echo "tier-1: crates/core/src builds no switch; ShardedClusterBuilder::build calls the one assembly" >&2; exit 1
fi
# The fabric and the optional backup, both inside ClusterBuilder::assemble.
[ "$(grep -c 'SwitchConfig::tofino1(' crates/replication/src/deploy.rs)" -eq 2 ] \
  && [ "$(sed -n '/pub fn assemble(/,/^    }$/p' crates/replication/src/deploy.rs | grep -c 'SwitchConfig::tofino1(')" -eq 2 ] \
  || { echo "tier-1: crates/replication/src/deploy.rs spells SwitchConfig::tofino1( exactly twice, both inside the one assembly" >&2; exit 1; }

echo "==> a multicast copy costs a header: one event per pipeline pass, one payload per packet, an ICRC only when somebody reads it"
# The three-timer walk and the eager serializer are references now and live with the tests that use them
# (crates/tofino/tests/fused_pass.rs, crates/rdma/tests/patch_props.rs).
for gone in 'TK_EGRESS' 'fn icrc_compute' 'fn patch_covered' 'fn crc32_shift' 'fn crc32_combine' 'crc32_two_lane_raw' 'new_verified' 'tx_staged'; do
  if grep -rn "$gone" crates/*/src; then
    echo "tier-1: '$gone' is gone; the pass charges the egress parser from the ingress, a frame derives its ICRC when read, and no clean path hashes a payload" >&2; exit 1
  fi
done
for body in 'pub fn to_frame(' 'pub fn stamp('; do
  if sed -n "/$body/,/^    }\$/p" crates/rdma/src/wire.rs | grep -n 'to_vec()\|Vec::\|vec!\|crc32\|BytesMut'; then
    echo "tier-1: '$body' in crates/rdma/src/wire.rs writes a head and shares a payload: no buffer, no copy of the frame, no checksum over it" >&2; exit 1
  fi
done
[ "$(grep -c 'fn icrc_trailer' crates/rdma/src/wire.rs)" -eq 1 ] && [ "$(grep -rho 'crc32_slice8_raw(CRC32_INIT' crates/*/src | wc -l)" -eq 2 ] \
  || { echo "tier-1: an ICRC is computed in one function, rdma::wire::icrc_trailer (the other CRC32_INIT is the public crc32)" >&2; exit 1; }
[ "$(grep -rho 'Frame::framed(' crates/*/src | wc -l)" -eq 2 ] || { echo "tier-1: a frame with a head is built at two sites, both in rdma::wire (to_frame, to_template of raw bytes)" >&2; exit 1; }
if sed -n '/^pub(crate) enum EventKind {/,/^}/p' crates/netsim/src/sim.rs | grep -n 'Frame,'; then
  echo "tier-1: EventKind carries a slot, not a Frame; a timer entry must not grow with the frame head" >&2; exit 1
fi

echo "==> two of a kind: one latency distribution, one slab, one ALU minimum, one group teardown, one request in flight"
for gone in 'HistogramStats' 'struct Stash' 'fn hw_min' 'SwitchConnecting' 'vacant:'; do
  if grep -rn "$gone" crates/*/src; then
    echo "tier-1: '$gone' is gone; LatencyStats is the one latency distribution, parked things live in netsim::Slab, the gather folds with tofino::alu_min, SwitchComm says what serves (Path) and what is pending separately (EXPERIMENTS E20)" >&2; exit 1
  fi
done
for once in 'bcast_table\.remove(' 'self\.groups\.remove('; do
  [ "$(grep -c "$once" crates/p4ce-switch/src/program.rs)" -eq 1 ] \
    && [ "$(sed -n '/fn drop_group(/,/^    }$/p' crates/p4ce-switch/src/program.rs | grep -c "$once")" -eq 1 ] \
    || { echo "tier-1: crates/p4ce-switch/src/program.rs spells '$once' exactly once, inside drop_group — the only code that removes a group" >&2; exit 1; }
done
[ "$(grep -rho 'fn alu_min' crates/*/src | wc -l)" -eq 1 ] || { echo "tier-1: 'fn alu_min' is defined exactly once under crates/*/src (tofino::registers); min_update and the credit fold both call it" >&2; exit 1; }

echo "==> a write lands once: checked per packet, placed once per message, read off the frame, single-threaded refcounts"
if grep -nE '(^|[^_[:alnum:]])remote_write\(' crates/rdma/src/host.rs; then
  echo "tier-1: crates/rdma/src/host.rs calls remote_write( nowhere; the receive path is check (check_write) + park + place (HostCore::land, EXPERIMENTS E21)" >&2; exit 1
fi
[ "$(grep -c '\.to_packet()' crates/rdma/src/host.rs)" -le 1 ] || { echo "tier-1: crates/rdma/src/host.rs calls .to_packet() at most once (read requests); the write path reads the RoceView" >&2; exit 1; }
if grep -rn 'std::sync' vendor/bytes/src; then
  echo "tier-1: vendor/bytes/src imports nothing from std::sync; Bytes keeps its buffer behind Rc (every simulation runs on one thread)" >&2; exit 1
fi

echo "==> a timeline is read off the trace: no sampler, no cadence knob, one read of the records"
for gone in 'SampledRegistry' 'SampleSeries' 'advance_tick' 'DEFAULT_SERIES_CAPACITY' 'pub cadence'; do
  if grep -rn "$gone" crates/*/src; then
    echo "tier-1: '$gone' is gone; the failover timeline is a view over the run's trace records (EXPERIMENTS E22)" >&2; exit 1
  fi
done
[ ! -e crates/netsim/src/timeseries.rs ] || { echo "tier-1: crates/netsim/src/timeseries.rs is gone; Timeline and its exports live in netsim::trace" >&2; exit 1; }
[ "$(sed -n '/^fn kill_and_attribute(/,/^}$/p' crates/harness/src/failover.rs | grep -c '\.records()')" -eq 1 ] \
  || { echo "tier-1: kill_and_attribute reads the trace once, after the run (handle.records()); a second read is a second recording" >&2; exit 1; }

echo "==> a planted bug is a fault the simulation carries: no mutation knob in shipping configuration, one explorer mode"
for gone in 'pub skip_epoch_revoke' 'fn skip_epoch_revoke' 'pub crosswire_groups' 'fn crosswire_mutation' 'fn single_writer_mutation' 'sharded-mutation-check' 'run_sharded_mutation_check'; do
  if grep -rn "$gone" crates/*/src; then
    echo "tier-1: '$gone' is gone; a bug is planted with Simulation::plant(netsim::Planted) and explore::MUTATIONS says where it is caught (EXPERIMENTS E23)" >&2; exit 1
  fi
done
# The legacy reproducer keys live on only as quoted strings in ExploreSpec::from_repro.
legacy_all=$(find crates/*/src -name '*.rs' -exec sed '/^#\[cfg(test)\]/,$d' {} \; | grep -c 'skip_epoch_revoke\|crosswire_groups')
legacy_quoted=$(sed -n '/pub fn from_repro(/,/^    }$/p' crates/harness/src/explore/mod.rs | grep -c '"skip_epoch_revoke"\|"crosswire_groups"')
[ "$legacy_all" -eq "$legacy_quoted" ] || { echo "tier-1: skip_epoch_revoke / crosswire_groups appear outside ExploreSpec::from_repro's legacy-key strings" >&2; exit 1; }
[ "$(grep -rho 'Planted::' crates/replication/src crates/p4ce-switch/src | wc -l)" -eq 3 ] \
  || { echo "tier-1: 'Planted::' appears exactly three times under crates/{replication,p4ce-switch}/src: the member's forgotten fence and the switch's two cross-wiring parts" >&2; exit 1; }
[ "$(grep -rho 'fn plant(' crates/*/src | wc -l)" -eq 1 ] || { echo "tier-1: 'fn plant' is defined exactly once (netsim::Simulation::plant)" >&2; exit 1; }

echo "==> counters are read where they are kept: each layer's stats struct, no string-keyed copy"
for gone in 'MetricsRegistry' 'LatencySummary' 'group_scoped' 'fn register_into' 'fn register_groups_into' 'fn register_layers' 'render_diff' 'set_counter('; do
  if grep -rn "$gone" crates/*/src; then
    echo "tier-1: '$gone' is gone; a run hands back each layer's own stats (harness::Layers) and nothing copies them under string names (EXPERIMENTS E24)" >&2; exit 1
  fi
done
[ ! -e crates/netsim/src/metrics.rs ] || { echo "tier-1: crates/netsim/src/metrics.rs is gone; HostStats, SwitchStats, P4ceSwitchStats/GroupStats and MemberStats are the counter pipe" >&2; exit 1; }

echo "==> one home for every random draw: the simulator owns its generator, a trace kind is one table row, a queue pair recovers one way"
[ ! -e vendor/rand ] || { echo "tier-1: vendor/rand is gone; netsim::rng is the one generator (EXPERIMENTS E25)" >&2; exit 1; }
if grep -nE '^[[:space:]]*rand([.[:space:]]|=)' Cargo.toml crates/*/Cargo.toml; then
  echo "tier-1: no workspace manifest depends on rand; draws come from netsim::rng" >&2; exit 1
fi
for once in '6364136223846793005' '0xbf58_476d_1ce4_e5b9'; do
  [ "$(grep -rho "$once" crates/*/src | wc -l)" -eq 1 ] || { echo "tier-1: '$once' appears exactly once under crates/*/src (netsim::rng: lcg_step, mix64)" >&2; exit 1; }
done
if grep -n 'const K_' crates/netsim/src/trace.rs; then
  echo "tier-1: no kind-byte constants in netsim/src/trace.rs; KINDS names each kind and its fields once" >&2; exit 1
fi
if grep -rnE 'pub struct (FifoScheduler|ReplayScheduler)' crates/*/src; then
  echo "tier-1: the sample schedulers live in netsim's tests; the explorer's GuidedScheduler is the replay reproducers use" >&2; exit 1
fi
[ "$(grep -c 'RecoveryAction::Fatal' crates/rdma/src/host.rs)" -eq 1 ] || { echo "tier-1: crates/rdma/src/host.rs matches RecoveryAction::Fatal exactly once (HostCore::recover serves the NAK and the timeout)" >&2; exit 1; }

echo "==> an option is something somebody sets: a value nothing varies is the paper's named constant, a flag that repeats another is gone"
for gone in 'pub max_inflight' 'pub cm_cost' 'pub retransmit_timeout' 'pub retry_limit' 'pub seed'; do
  if grep -n "$gone" crates/rdma/src/host.rs; then
    echo "tier-1: '$gone' is not a HostConfig field; MAX_INFLIGHT, CM_COST, RETRANSMIT_TIMEOUT and RETRY_LIMIT are rdma::host constants, the key/PSN seed is the address (EXPERIMENTS E26)" >&2; exit 1
  fi
done
for gone in 'pub heartbeat_period' 'pub failure_threshold' 'pub permission_change_delay' 'pub path_failover_delay'; do
  if grep -rn "$gone" crates/replication/src; then
    echo "tier-1: '$gone' is not a ClusterConfig/MemberConfig field; the paper's timing is a replication::member constant (EXPERIMENTS E26)" >&2; exit 1
  fi
done
for gone in 'pub numrecv_window' 'pub credit_stale_scatters'; do
  if grep -rn "$gone" crates/p4ce-switch/src; then
    echo "tier-1: '$gone' is not a P4ceSwitchConfig field; NUMRECV_WINDOW and CREDIT_STALE_SCATTERS are constants (EXPERIMENTS E26)" >&2; exit 1
  fi
done
for gone in '"--max-schedules"' '"--seed"'; do
  if grep -nF "$gone" crates/harness/src/bin/p4ce-explore.rs; then
    echo "tier-1: p4ce-explore takes $gone no more: --seeds names the seeds, --schedules is each exploring mode's budget (EXPERIMENTS E26)" >&2; exit 1
  fi
done

echo "==> a log that recycles: a 4 MiB ring by default, one reap per watched write message"
if grep -rn '16 << 20' crates/replication/src; then
  echo "tier-1: the log is a ring the replicas follow; its default is DEFAULT_LOG_SIZE (4 MiB), not 16 MiB (EXPERIMENTS E27)" >&2; exit 1
fi
grep -q '^pub const DEFAULT_LOG_SIZE: usize = 4 << 20;' crates/replication/src/config.rs \
  || { echo "tier-1: crates/replication/src/config.rs defines DEFAULT_LOG_SIZE as 4 << 20" >&2; exit 1; }
# The watched write path charges reap_cost once, after the early return for a message's non-last packets.
notify=$(sed -n '/fn notify_remote_write(/,/^    }$/p' crates/rdma/src/host.rs)
[ "$(grep -c 'reap_cost' <<<"$notify")" -eq 1 ] \
  && [ "$(grep -n 'if !last' <<<"$notify" | cut -d: -f1)" -lt "$(grep -n 'reap_cost' <<<"$notify" | cut -d: -f1)" ] \
  && ! sed -n '/fn execute_write(/,/^    }$/p' crates/rdma/src/host.rs | grep -q 'reap_cost' \
  || { echo "tier-1: a watched remote write is charged reap_cost at one site, HostCore::notify_remote_write, at the message's last packet (EXPERIMENTS E27)" >&2; exit 1; }

echo "==> a ring is a position: the writer, its readers and the heartbeat word count bytes of history"
for gone in 'struct Span' 'SPANS_PER_LAP' 'fn oldest_seq' 'fn behind' 'lap_start'; do
  if grep -rn "$gone" crates/replication/src; then
    echo "tier-1: '$gone' is gone; the writer and each reader keep one byte position, laps × capacity + offset (EXPERIMENTS E28)" >&2; exit 1
  fi
done

echo "==> a switch group ends one way: drop_group frees it, gid_of_leader names it"
for gone in 'GroupRetire' 'retire_group' 'retire_comm' 'fn retire(' 'fn group_id('; do
  if grep -rnF "$gone" crates/*/src; then
    echo "tier-1: '$gone' is gone; a group leaves the switch through drop_group only and P4ceProgram::gid_of_leader names a leader's group (EXPERIMENTS E29)" >&2; exit 1
  fi
done

echo "==> a trace record costs its content: one variable-width format, no fixed record, no format limit"
for gone in 'struct BinRecord' 'T_NS_LIMIT' 'fields: [u64; 4]' 'more than 255 distinct trace labels'; do
  if grep -nF "$gone" crates/netsim/src/trace.rs; then
    echo "tier-1: '$gone' is gone; a trace record is a kind byte, varint node id, zigzag time delta and the fields its KINDS row names (EXPERIMENTS E30)" >&2; exit 1
  fi
done

echo "==> a trace is read where it lies: a Records snapshot of the ring's bytes, decoded as it is walked"
# Library code only: everything before a file's first #[cfg(test)].
held=$(find crates/*/src -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ { exit } /Vec<TraceRecord>|&\[TraceRecord\]/ { print FILENAME ":" FNR ": " $0 }' {} \;)
if [ -n "$held" ]; then
  echo "$held" >&2
  echo "tier-1: a trace is handed out as netsim::Records and walked; no decoded Vec<TraceRecord> or &[TraceRecord] in library code (EXPERIMENTS E31)" >&2; exit 1
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
