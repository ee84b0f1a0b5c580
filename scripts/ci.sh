#!/usr/bin/env sh
# Offline CI gate. Everything here must pass with no network access.
#
#   scripts/ci.sh
#
# Steps: formatting, release build (rif-bench, the one experiment
# binary, included), the benchmark package's build against it, a guard
# that the simulator engine names no retry
# scheme, a guard that the event queue keeps no heap beside its flat
# out-of-order lane, a guard that the simulator's state keeps no map (slot
# tables and block-indexed vectors, no integer hasher), a guard that the
# serving plane has one framing layer
# (one request decoder, one flag parser), a guard
# that it has one admission gate, a guard that a node is one thread (no
# shard threads, inboxes or completion channels, nothing polled on a
# timer), a guard that a node's state has one owner (no lock or mirror
# around what only the event loop touches, the capture journal and the
# shutdown request included), a guard that each model number has one
# definition (the ECC capability, the V_TH stress law, the learner's
# fixed tuning; one stress law, region walk and crossing search, none
# restated in mlc.rs; the QLC study folded into Fig. 4), a guard that
# the real code's Monte-Carlo sweeps share one encode→corrupt page loop,
# a guard that the min-sum kernel has one float sweep per lane type (no
# first-iteration variant) and one seeding of it, a guard that a
# decoder's graph builds no per-edge list, a guard that
# the capture is the one trace file format, a guard that Figs. 6, 17 and
# 18 are read off one paper-simulation grid, a guard that the device has
# one refresh interval, a guard that each device time and the page
# address have one definition, a guard that a request enters the
# simulator's request table only at admission (no arrival event, no
# backlog of request slots), a guard that every library crate without
# unsafe code forbids it, test suite (the property
# suites and the experiment
# registry's smoke runs are plain integration tests and run with it), the
# decoder's lane-parity and reference edge-order tests again in a
# release build, its heap bound in release, the Swift-Read
# inversion's equivalence suite and 1 M-case sweep, the Zipf sampler's
# exactness tests and the trace fingerprint pins, and the cluster
# loopback in a release build, the
# simulator golden regenerated by its example and diffed, all five of
# the benchmark's workloads at smoke size
# (the two simulator ones twice on one seed: their reports must hash
# alike), a determinism check that
# --threads does not change a single CSV byte of any experiment, a trace
# gate that replays every simulated run of every experiment through the
# invariant checker, the capture check (every
# experiment regenerated at full size, byte-for-byte against
# results/*.txt),
# a loopback serving smoke (rif-server + rif-client over TCP), the
# hybrid serving gate (rif-server --hybrid: clean foreground I/O while
# background migrations and refresh run, nonzero server.bg.* gauges),
# the hybrid sweep smoke (RiF's QLC win must widen vs TLC — the
# experiment self-gates via its exit code), the
# event-loop high-concurrency gate (1k connections on two client threads), a
# front-door bench smoke, the chaos gate, the cluster serving gate (two
# cluster nodes behind the shard directory: routed load, live
# migration, cluster STATS),
# the cluster chaos gate (kill-and-rebalance under load, contract PASS),
# the replication gate (RF=2: hard-kill the hottest-range primary AND
# one-way-partition a second node mid-load — contract PASS, zero failed
# reads on replicated ranges, byte-identical directory restart), and the
# multi-kill chaos gate (two seeded node kills plus a partition through
# the fault proxy on a four-node cluster, same bar). Last, a work-tree
# guard: no step may have rewritten a tracked file.
set -eu

cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d)"
server_pid=""
rl_pid=""
hy_pid=""
cap_pid=""
rp_pid=""
mux_pid=""
node_a_pid=""
node_b_pid=""
dir_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    [ -n "$rl_pid" ] && kill "$rl_pid" 2>/dev/null || true
    [ -n "$hy_pid" ] && kill "$hy_pid" 2>/dev/null || true
    [ -n "$cap_pid" ] && kill "$cap_pid" 2>/dev/null || true
    [ -n "$rp_pid" ] && kill "$rp_pid" 2>/dev/null || true
    [ -n "$mux_pid" ] && kill "$mux_pid" 2>/dev/null || true
    [ -n "$node_a_pid" ] && kill "$node_a_pid" 2>/dev/null || true
    [ -n "$node_b_pid" ] && kill "$node_b_pid" 2>/dev/null || true
    [ -n "$dir_pid" ] && kill "$dir_pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT

# Work-tree guard, first half: no step below may rewrite a tracked file
# (a binary that regenerates a checked-in artifact at smoke size makes
# the artifact contradict the docs that quote it). The state is taken
# again at the end and compared, so uncommitted edits made before the
# run are fine.
tree_state() {
    git diff --name-only | while IFS= read -r f; do
        if [ -f "$f" ]; then cksum "$f"; else echo "deleted $f"; fi
    done
}
in_git=false
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    in_git=true
    tree_state > "$tmpdir/tree_before.txt"
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

# perf/ is its own workspace compiled against crates/* by path: an API
# break there makes the benchmark driver exit 101 with no result line,
# and no workspace build compiles it. Built here, so such a break fails
# the gate before the long steps run.
echo "==> rif-perf builds against the workspace crates"
cargo build --release --offline --manifest-path perf/Cargo.toml

# The engine asks the scheme's row in retry.rs and never names a scheme:
# the next scheme must not leak back into the simulator's modules.
echo "==> no RetryKind:: under crates/ssd/src/simulator/ (tests.rs aside)"
if grep -n 'RetryKind::' $(ls crates/ssd/src/simulator/*.rs | grep -v '/tests\.rs$'); then exit 1; fi

# One event-queue mechanism: events scheduled out of order go to a flat
# vector kept sorted (DESIGN "The event queue's two lanes"); no heap
# comes back beside it.
echo "==> no BinaryHeap under crates/events/src"
if grep -rn 'BinaryHeap' crates/events/src; then exit 1; fi

# One state layout in the simulator: per-slot state in slot tables,
# per-block state in vectors indexed by block id (DESIGN §14.2); no map
# comes back into the FTL, the retention tracker or the engine, and the
# integer hasher they once used stays gone.
echo "==> no HashMap/IntMap/BTreeMap in ftl.rs, retention.rs or simulator/ (tests.rs aside), no rif_events::hash"
if grep -n 'HashMap\|IntMap\|BTreeMap' crates/ssd/src/ftl.rs crates/ssd/src/retention.rs \
    $(ls crates/ssd/src/simulator/*.rs | grep -v '/tests\.rs$'); then
    exit 1
fi
if grep -rn 'rif_events::hash' crates/; then exit 1; fi

# One framing layer: one receive buffer (`FrameBuffer`, whose `read_from`
# every socket reader reads through) and one request-decoding body, the
# owned `protocol::decode_request` (no borrowed request views beside it),
# and one flag parser for the serving binaries (`rif_server::cli`).
echo "==> one framing layer (no RecvBuffer, no 16-KiB read scratch, one request decoder, one flag parser)"
if grep -rn 'RecvBuffer' crates/; then exit 1; fi
if grep -rn 'RequestView\|RangeListView\|ReplicaListView\|BatchView\|decode_request_view\|to_request' crates/; then
    exit 1
fi
if [ -e crates/cluster/src/cli.rs ]; then
    echo "crates/cluster/src/cli.rs is back: the flag parser is rif_server::cli"
    exit 1
fi
if grep -rn '\[0u8; 16 \* 1024\]' crates/server/src crates/cluster/src crates/chaos/src; then exit 1; fi
if [ "$(grep -r 'OP_MAP_PUSH =>' crates/server/src | wc -l)" -ne 1 ]; then
    echo "more than one request decoder under crates/server/src"
    exit 1
fi

# One admission gate: a READ or WRITE is a one-entry group through the
# BATCH gate, REPLICATE shares its room check and submission, a shard's
# in-flight count is held against the cap in one place, and no blocking
# frame reader is left.
echo "==> one admission gate (no admit_io, no SubmitMany, one slot check, no read_frame)"
if grep -rn 'fn admit_io\|SubmitMany' crates/; then exit 1; fi
if [ "$(grep -rn 'inflight() +' crates/server/src | wc -l)" -ne 1 ]; then
    echo "not exactly one in-flight slot check under crates/server/src"
    exit 1
fi
if grep -rn 'fn read_frame' crates/; then exit 1; fi

# A node is one thread (DESIGN §8.3): the event loop steps the shards
# itself and pushes their answers onto the write queues, and sleeps until
# a socket is ready or a shard has something due. No shard thread, inbox
# or park, no thread per FLUSH or MIGRATE_OUT, no completion channel, no
# timed channel wait, no idle poll.
echo "==> one thread per node (no shard threads, ShardTx, off_loop, park_timeout or channels in the loop)"
if grep -rn 'park_timeout\|ShardTx\|off_loop\|rif-shard-\|recv_timeout\|IDLE_POLL' crates/server/src; then
    exit 1
fi
if grep -n 'mpsc' crates/server/src/event_loop.rs crates/server/src/shard.rs crates/server/src/server.rs; then
    exit 1
fi

# A node's state has one owner (DESIGN §8.5): the event loop holds the
# metrics registry, the map view, the saturation counters and the
# replication targets without a lock; other threads reach it through one
# control queue, the one mutex left in server.rs.
echo "==> one owner of a node's state (no FrontDoor, publish or mirrors; one Mutex in server.rs, none in replicate.rs)"
if grep -rn 'FrontDoor\|fn publish\|Mutex<MetricsRegistry>\|Mutex<ClusterState>\|AtomicUsize' crates/server/src; then
    exit 1
fi
if [ "$(grep -c 'Mutex<' crates/server/src/server.rs)" -gt 1 ]; then
    echo "more than one Mutex< in crates/server/src/server.rs"
    exit 1
fi
if grep -n 'Mutex' crates/server/src/replicate.rs; then exit 1; fi

# The capture journal and the shutdown request are the loop's too
# (DESIGN §8.3, §10.2): the recorder is a plain value in `Node`, a
# shutdown request goes through the control queue, and
# `wait_for_shutdown` waits on its condvar instead of sleeping.
echo "==> one owner of the capture journal and the shutdown request (no lock, atomic or Arc in the recorder; no AtomicBool or sleep in server.rs)"
if grep -nE 'Mutex|Atomic|Arc' crates/server/src/recorder.rs; then exit 1; fi
if grep -nE 'AtomicBool|sleep' crates/server/src/server.rs; then exit 1; fi
if grep -rnE 'fn recorder\(|Arc<TraceRecorder>' crates/; then exit 1; fi

# A node is one thread in every mode (DESIGN §15.2): the event loop ships
# replication over wires on its own poller, so no ship thread, channel,
# atomic, shared pointer, timed wait or blocking RPC is left in the
# shipper. The directory blocks in `accept` and a stop wakes it with a
# connect; only its handlers keep a read tick.
echo "==> one thread per node in cluster mode (no ship thread; directory blocks in accept)"
if grep -rn 'rif-repl-ship' crates/; then exit 1; fi
if grep -nE 'thread::|mpsc|Atomic|Arc<|sleep|Conn::' crates/server/src/replicate.rs; then exit 1; fi
if [ "$(grep -c 'ACCEPT_TICK' crates/cluster/src/directory.rs)" -ne 2 ] \
    || ! grep -q 'set_read_timeout(Some(ACCEPT_TICK))' crates/cluster/src/directory.rs; then
    echo "ACCEPT_TICK used outside serve_conn's read timeout in crates/cluster/src/directory.rs"
    exit 1
fi

# One definition per model number (DESIGN §6, §12, §14.1): the ECC
# capability is read from `PAPER_CORRECTION_CAPABILITY`, the MLC model
# runs the TLC model's stress law, region walk and crossing search
# instead of restating them (no `powf`, `gauss_mass(` or `bisect(`
# there, and no b = 3 copy of TLC), the TLC-vs-QLC study lives in
# Fig. 4's per-mode table and `hybrid_sweep` rather than an experiment
# of its own, and the learner's tuning is fixed, with nothing to
# validate. Production code
# only: each file up to its first #[cfg(test)], comment lines skipped.
echo "==> one definition per model number (0.0085 only in ldpc/src/code.rs; no intersection, 0.094, powf, gauss_mass(, bisect( or fn tlc in mlc.rs; no ablation_qlc under crates/ or results/; no validate in learn.rs)"
prod_lines() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$1"
}
if for f in $(find crates/*/src -name '*.rs' | grep -v '^crates/ldpc/src/code\.rs$'); do
    prod_lines "$f"
done | grep '0\.0085'; then
    exit 1
fi
if prod_lines crates/flash/src/mlc.rs | grep -E 'fn intersection|0\.094|powf|gauss_mass\(|bisect\(|fn tlc'; then exit 1; fi
if grep -rn 'ablation_qlc' crates results; then exit 1; fi
if prod_lines crates/flash/src/learn.rs | grep 'pub fn validate'; then exit 1; fi

# One Monte-Carlo page loop over the real code (DESIGN §3):
# `rif_ldpc::analysis::page_trials` builds every noisy
# page of Figs. 3, 10, 11 and 14, one accuracy function scores every
# predictor on one decode, and Fig. 14 is printed by `fig11_rp_accuracy`.
# Production code only, as above.
echo "==> one Monte-Carlo page loop (encode→corrupt only in ldpc/src/analysis.rs; no measure_accuracy_with; no fig14 experiment)"
for f in $(find crates/ldpc/src crates/odear/src crates/bench/src -name '*.rs'); do
    if [ "$f" != crates/ldpc/src/analysis.rs ] &&
        prod_lines "$f" | grep -qF 'SimRng::stream(' &&
        prod_lines "$f" | grep -qF '.corrupt('; then
        echo "$f: a second encode→corrupt trial loop"
        exit 1
    fi
    if prod_lines "$f" | grep -F 'fn measure_accuracy_with'; then exit 1; fi
done
if prod_lines crates/bench/src/experiments/mod.rs | grep -F 'fig14_rp_approx_accuracy'; then exit 1; fi

# One min-sum sweep per lane type (DESIGN §5): a hard-decision decode runs
# iteration 1 on packed words and a soft one clears the messages, so the
# float sweep has no first-iteration variant. Production code only.
echo "==> one min-sum sweep instantiation (no const FIRST in ldpc/src/decoder.rs)"
if prod_lines crates/ldpc/src/decoder.rs | grep -F 'const FIRST'; then exit 1; fi

# One float sweep and one seeding of it (DESIGN §5): a hard-decision
# decode runs iterations 1 and 2 on packed words and seeds the sweep's
# iteration 3 from them, a soft one clears the messages, so decoder.rs
# defines exactly one `fn sweep<` and one `fn seed_iteration_`.
# Production code only.
echo "==> one min-sum sweep and one seeding (one fn sweep<, one fn seed_iteration_ in ldpc/src/decoder.rs)"
for def in 'fn sweep<' 'fn seed_iteration_'; do
    n=$(prod_lines crates/ldpc/src/decoder.rs | grep -cF "$def" || true)
    if [ "$n" -ne 1 ]; then
        echo "crates/ldpc/src/decoder.rs: $n definitions of '$def', want 1"
        exit 1
    fi
done

# A decoder holds its kernel's plan (DESIGN §5): the per-edge CSR lists
# only the reference walks are built by `Csr::build` for each reference
# call, so `Graph::build` builds none of them. Production code only.
echo "==> a decoder holds its plan (no per-edge list in ldpc's Graph::build)"
build=$(prod_lines crates/ldpc/src/decoder.rs |
    awk '/fn build\(code: &QcLdpcCode\) -> Graph/,/^[^:]*:[0-9]*:     }$/')
if [ -z "$build" ]; then
    echo "crates/ldpc/src/decoder.rs: no Graph::build to check"
    exit 1
fi
if printf '%s\n' "$build" | grep -E 'chk_ptr|chk_vars|var_ptr|var_edges|var_of|edge_count|Csr'; then
    echo "crates/ldpc/src/decoder.rs: Graph::build builds a per-edge list"
    exit 1
fi

# One trace file format (DESIGN §10.1): a trace file enters the workspace
# only as a capture (`Capture::parse_csv`), so the loose four-column
# parser and its writer stay gone.
echo "==> one trace file format (no parser.rs or writer.rs in rif-workloads)"
for f in crates/workloads/src/parser.rs crates/workloads/src/writer.rs; do
    if [ -e "$f" ]; then echo "$f: a second trace file format"; exit 1; fi
done
if grep -nE 'mod (parser|writer)([^[:alnum:]_]|$)' crates/workloads/src/lib.rs; then exit 1; fi

# One paper-simulation grid (DESIGN §3): `fig17_bandwidth` runs the eight
# Table II workloads × seven schemes × three wear stages once and prints
# Figs. 6, 17 and 18 from it; Fig. 19 is only `fig19_latency_cdf`.
# Production code only, as above.
echo "==> one paper-simulation grid (no fig06/fig18 experiment, no tail_latency example)"
if prod_lines crates/bench/src/experiments/mod.rs |
    grep -E 'fig06_ssdone_vs_zero|fig18_channel_usage'; then
    exit 1
fi
if [ -e examples/tail_latency.rs ]; then
    echo "examples/tail_latency.rs: a second Fig. 19"
    exit 1
fi

# One refresh interval (DESIGN §14.3): `SsdConfig::refresh_days` is both
# the cold-age horizon and the background scan's deadline, so neither the
# refresh arithmetic module nor a second interval knob comes back.
echo "==> one refresh interval (no rif_ssd::refresh, no refresh_interval_days)"
if [ -e crates/ssd/src/refresh.rs ]; then
    echo "crates/ssd/src/refresh.rs: a second statement of the refresh interval"
    exit 1
fi
if grep -rn 'refresh_interval_days' crates tests examples; then exit 1; fi

# One cache drain (DESIGN §14.2): above the high watermark the scheduler
# migrates oldest-first, and on a hybrid device a read always jumps
# queued background work; neither a drain policy nor a priority switch
# comes back.
echo "==> one cache drain (no MigrationPolicy, no fg_priority)"
if grep -rn 'MigrationPolicy\|fg_priority' crates tests examples; then exit 1; fi

# One definition per device fact (DESIGN §6): `FlashTiming` computes
# every die time (a sense, a copyback, a garbage collection, a chunk's
# page-buffer readout, and so tPRED), and the FTL's `SlotLocation` is the
# one physical page address, with the page size read off
# `FlashGeometry`. Neither the command enum, the address type, the
# predictor's own latency formula nor the RVS page-size knob comes back.
# The page-size check reads production code only, as above, and skips
# test-only modules (`tests.rs`).
echo "==> one definition per device fact (no FlashCommand/PageAddress/prediction_latency/with_page_cells; t_r + t_prog only in flash/src/chip.rs; no 16 * 1024 in flash/odear/ssd production code outside geometry.rs)"
if grep -rnE 'FlashCommand|PageAddress|prediction_latency|with_page_cells' crates tests examples; then exit 1; fi
if grep -rnE 't_r \+ ([[:alnum:]_.]*\.)?t_prog' crates tests examples | grep -v '^crates/flash/src/chip\.rs:'; then exit 1; fi
if for f in $(find crates/flash/src crates/odear/src crates/ssd/src -name '*.rs' ! -name tests.rs ! -name geometry.rs); do
    prod_lines "$f"
done | grep -F '16 * 1024'; then
    exit 1
fi

# One outcome step per sense (DESIGN §1): the read path draws RP's
# verdict at one site and a decode's outcome at one other, for every
# row, and a forced outcome is the plant of that one `decode`; the
# controller-side profile and the plain-decode helper stay gone.
# Production code only, as above, tests.rs aside.
echo "==> one outcome step (one sample_retry( and one sample_failure( under crates/ssd/src/simulator/, no decode_profile/decode_outcome)"
sim_prod() {
    for f in $(ls crates/ssd/src/simulator/*.rs | grep -v '/tests\.rs$'); do
        prod_lines "$f"
    done
}
for call in 'sample_retry(' 'sample_failure('; do
    n=$(sim_prod | grep -cF "$call" || true)
    if [ "$n" -ne 1 ]; then
        echo "crates/ssd/src/simulator/: $n call sites of '$call', want 1"
        exit 1
    fi
done
if sim_prod | grep -E 'fn decode_(profile|outcome)'; then exit 1; fi

# A request enters the request table only at admission (DESIGN "Host
# memory follows device state"): one not yet admitted waits outside the
# engine as a compact record in arrival order, so no arrival event and
# no backlog of request slots come back. Production code only, as above.
echo "==> requests wait outside the engine (no Arrive event, no backlog under crates/ssd/src/simulator/)"
if sim_prod | grep -nE 'Arrive|backlog'; then exit 1; fi

# No unsafe code outside the two crates that need it (the decoder's SIMD
# lanes, the server's poller and event loop): each other library root
# forbids it.
echo "==> #![forbid(unsafe_code)] in every library crate without unsafe"
for f in crates/bench/src/lib.rs crates/chaos/src/lib.rs crates/cluster/src/lib.rs \
    crates/events/src/lib.rs crates/flash/src/lib.rs crates/odear/src/lib.rs \
    crates/ssd/src/lib.rs crates/workloads/src/lib.rs src/lib.rs; do
    if ! grep -qxF '#![forbid(unsafe_code)]' "$f"; then
        echo "$f: missing #![forbid(unsafe_code)]"
        exit 1
    fi
done

echo "==> cargo test -q"
cargo test -q

# The golden's generator re-states by hand the configurations the
# determinism suite pins it with (golden_run, learned_run, hybrid_run);
# run it, so the two statements cannot drift apart unseen.
echo "==> dump_oracle_golden reproduces tests/golden/oracle_seed_reports.json"
cargo run --release --quiet --example dump_oracle_golden | diff - tests/golden/oracle_seed_reports.json

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The decoder's lane parity (every lane type the host has == the scalar
# reference) under the optimized build the benchmark runs: in debug the
# intrinsics are not inlined into the kernel the way they are there.
echo "==> decoder lane parity in release (rif-ldpc, golden_equivalence)"
cargo test -q --release -p rif-ldpc
cargo test -q --release --test golden_equivalence

# A decoder's heap is its plan plus one decode's scratch (DESIGN §5),
# optimized as the benchmark runs it; the rif-ldpc run above holds the
# reference's per-edge lists to the matrix's adjacency in its summation
# order (`the_reference_csr_is_the_matrix_adjacency`).
echo "==> decoder heap bound in release"
cargo test -q --release --test decoder_heap_bound

# The Swift-Read inversion's memo-and-replay path against the plain
# bisection, bit for bit, optimized as the benchmark runs it: the crate's
# tests, then the 1 M-case sweep they leave ignored.
echo "==> Swift-Read inversion equivalence in release (rif-flash, 1 M-case sweep)"
cargo test -q --release -p rif-flash
cargo test -q --release -p rif-flash --lib -- --ignored

# Synthetic traces: the guided Zipf sampler against the binary search it
# replaces, and the trace fingerprint pins, optimized as the benchmark
# runs them, so the pins hold at both optimization levels.
echo "==> Zipf sampler exactness and trace fingerprints in release"
cargo test -q --release -p rif-events --lib rng::tests::guided_sample
cargo test -q --release --test trace_fingerprints

# Simulator memory follows the device state it holds (DESIGN §14.2): a
# region's never-used blocks stay a range, not a pre-filled free list,
# and every die's SLC-cache fifo stays within a constant factor of its
# live residents over the bound test's full length in the optimized
# build (its debug run in `cargo test` is 20× shorter).
echo "==> simulator memory bounded (no collected free list in Region, fifo bound in release)"
if awk '/^impl Region/,/^}/' crates/ssd/src/ftl.rs | grep -n 'collect'; then
    echo "crates/ssd/src/ftl.rs: Region pre-fills its free list again"
    exit 1
fi
cargo test -q --release -p rif-ssd --lib ftl::tests::rewrite_heavy_cache_keeps_every_fifo_bounded

# The live migration must land mid-load in the optimized build too.
echo "==> cluster loopback in release"
cargo test -q --release -p rif-cluster --test cluster_loopback

# The benchmark's workloads at smoke size (rif-perf was built after the
# workspace), the decode kernel end to end on the paper code among them:
# every successful decode must equal what was programmed.
echo "==> rif-perf: all five workloads --quick are correct, sim_* repeat per seed"
# The two simulator workloads: each must check its own outputs, and two
# runs on one seed must hash every cell's SimReport alike (the per-seed
# determinism perf/README.md promises for ssd.report_fnv; a simulator
# speed-up is only a speed-up while that holds).
for w in sim_read_retry sim_write_bg; do
    for pass in a b; do
        cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
            run --workload "$w" --quick --seed 42 > "$tmpdir/$w.$pass.txt"
        grep -q '"correct":true' "$tmpdir/$w.$pass.txt"
        grep '^ *ssd\.report_fnv ' "$tmpdir/$w.$pass.txt" > "$tmpdir/$w.$pass.fnv"
    done
    cat "$tmpdir/$w.a.fnv"
    diff "$tmpdir/$w.a.fnv" "$tmpdir/$w.b.fnv"
done
cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
    run --workload ecc_bit_true --quick > "$tmpdir/ecc_bit_true.txt"
tail -n 1 "$tmpdir/ecc_bit_true.txt"
grep -q '"correct":true' "$tmpdir/ecc_bit_true.txt"
# serve_node links the client API (Conn, run_load, run_mux_load): a
# behavioural break there builds fine and only shows in a run.
cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
    run --workload serve_node --quick > "$tmpdir/serve_node.txt"
tail -n 1 "$tmpdir/serve_node.txt"
grep -q '"correct":true' "$tmpdir/serve_node.txt"
# serve_cluster is the only thing in CI that runs rif-perf's routed
# workload (run_routed over a directory and two RF=2 nodes).
cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
    run --workload serve_cluster --quick > "$tmpdir/serve_cluster.txt"
tail -n 1 "$tmpdir/serve_cluster.txt"
grep -q '"correct":true' "$tmpdir/serve_cluster.txt"

# The one experiment binary, built by `cargo build --release` above
# (rif-bench is a default member).
BENCH=./target/release/rif-bench

echo "==> thread-count determinism (every experiment, --threads 1 vs 8)"
"$BENCH" run --all --quick --csv --seed 42 --threads 1 > "$tmpdir/t1.csv"
"$BENCH" run --all --quick --csv --seed 42 --threads 8 > "$tmpdir/t8.csv"
diff "$tmpdir/t1.csv" "$tmpdir/t8.csv"

# Every simulated run of every experiment writes its trace and is
# replayed through TraceChecker on the spot; trace-check then replays
# the files standalone. (~400 MB of JSONL, removed straight after.)
echo "==> trace-invariant gate (run --all --trace-out, then trace-check)"
"$BENCH" run --all --quick --seed 42 --trace-out "$tmpdir/trace" > /dev/null
"$BENCH" trace-check "$tmpdir"/trace-*.jsonl > "$tmpdir/trace_check.txt"
tail -n 1 "$tmpdir/trace_check.txt"
rm -f "$tmpdir"/trace-*.jsonl

echo "==> loopback serving smoke (rif-server + rif-client)"
# Every client step runs under a hard timeout so a wedged server cannot
# hang CI; the servers themselves are killed by the EXIT trap.
cargo build -q --release -p rif-server
SRV=./target/release/rif-server
CLI=./target/release/rif-client

# Wait for a background daemon to print its listening line, echo
# "host:port". The optional second argument overrides the sentinel
# prefix (default: the rif-server one).
wait_addr() {
    _log="$1"
    _prefix="${2:-rif-server listening on}"
    _i=0
    while [ "$_i" -lt 100 ]; do
        _addr="$(sed -n "s/^$_prefix //p" "$_log")"
        if [ -n "$_addr" ]; then
            printf '%s\n' "$_addr"
            return 0
        fi
        sleep 0.1
        _i=$((_i + 1))
    done
    echo "daemon never came up; log:" >&2
    cat "$_log" >&2
    return 1
}

"$SRV" --port 0 --shards 2 --time-scale 200 --seed 42 > "$tmpdir/server.log" &
server_pid=$!
addr="$(wait_addr "$tmpdir/server.log")"

timeout 180 "$CLI" --addr "$addr" --requests 10000 --connections 4 \
    --depth 16 --seed 7 > "$tmpdir/smoke.json"
cat "$tmpdir/smoke.json"
grep -q '"completed":10000' "$tmpdir/smoke.json"
grep -q '"protocol_errors":0' "$tmpdir/smoke.json"
grep -q '"p99":' "$tmpdir/smoke.json"

# Batched submission frames: the same load again over BATCH(8) frames
# must stay error-free and actually batch.
timeout 180 "$CLI" --addr "$addr" --requests 10000 --connections 4 \
    --depth 16 --seed 7 --batch 8 > "$tmpdir/batched.json"
cat "$tmpdir/batched.json"
grep -q '"completed":10000' "$tmpdir/batched.json"
grep -q '"protocol_errors":0' "$tmpdir/batched.json"
if grep -q '"batches_sent":0,' "$tmpdir/batched.json"; then
    echo "batched run sent no BATCH frames"
    exit 1
fi

timeout 30 "$CLI" --addr "$addr" --stats > "$tmpdir/stats.txt"
grep -q '^counter server\.completed 20000$' "$tmpdir/stats.txt"
grep -q '^histogram server\.latency\.virtual ' "$tmpdir/stats.txt"
grep -q '^histogram server\.pacing\.lag ' "$tmpdir/stats.txt"

timeout 30 "$CLI" --addr "$addr" --shutdown
wait "$server_pid" || { echo "server exited non-zero"; exit 1; }
server_pid=""

# An over-rate burst against a tiny token bucket must be throttled with
# explicit BUSY backpressure (and still complete via client retries).
"$SRV" --port 0 --shards 1 --time-scale 200 --rate 300 --burst 4 \
    --seed 43 > "$tmpdir/server_rl.log" &
rl_pid=$!
addr_rl="$(wait_addr "$tmpdir/server_rl.log")"
timeout 120 "$CLI" --addr "$addr_rl" --requests 200 --connections 1 \
    --depth 16 --max-busy-retries 100000 --seed 9 > "$tmpdir/burst.json"
cat "$tmpdir/burst.json"
grep -q '"completed":200' "$tmpdir/burst.json"
if grep -q '"busy_ratelimit":0,' "$tmpdir/burst.json"; then
    echo "over-rate burst saw no BUSY backpressure"
    exit 1
fi
timeout 30 "$CLI" --addr "$addr_rl" --shutdown
wait "$rl_pid" || { echo "rate-limited server exited non-zero"; exit 1; }
rl_pid=""

# Hybrid serving gate: the shards run as hybrid SLC/QLC devices with a
# drift clock ageing the flash while serving. Foreground I/O must stay
# error-free while the background scheduler destages the SLC cache and
# refreshes aged slots — both visible as nonzero server.bg.* gauges.
# The drift rate is sized so a slot comes due for refresh roughly once
# within the run (cold slots start up to 30 days old); much faster and
# every refreshed slot is due again moments later, and the resulting
# rewrite storm starves foreground I/O on the dies.
echo "==> hybrid serving gate (rif-server --hybrid, bg traffic + clean fg)"
"$SRV" --port 0 --shards 2 --time-scale 200 --seed 47 --hybrid \
    --drift-days-per-sec 0.02 > "$tmpdir/server_hy.log" &
hy_pid=$!
addr_hy="$(wait_addr "$tmpdir/server_hy.log")"
timeout 180 "$CLI" --addr "$addr_hy" --requests 5000 --connections 4 \
    --depth 16 --read-ratio 0.8 --seed 11 > "$tmpdir/hybrid.json"
cat "$tmpdir/hybrid.json"
grep -q '"completed":5000' "$tmpdir/hybrid.json"
grep -q '"protocol_errors":0' "$tmpdir/hybrid.json"
grep -q '"failed":0' "$tmpdir/hybrid.json"
timeout 30 "$CLI" --addr "$addr_hy" --stats > "$tmpdir/hybrid_stats.txt"
grep -q '^gauge server\.bg\.shard0\.migrated_slots ' "$tmpdir/hybrid_stats.txt"
if grep -q '^gauge server\.bg\.shard0\.migrated_slots 0\.000000$' "$tmpdir/hybrid_stats.txt"; then
    echo "hybrid shards migrated nothing"
    exit 1
fi
grep -q '^gauge server\.bg\.shard0\.bg_ops ' "$tmpdir/hybrid_stats.txt"
if grep -q '^gauge server\.bg\.shard0\.bg_ops 0\.000000$' "$tmpdir/hybrid_stats.txt"; then
    echo "hybrid shards ran no background ops"
    exit 1
fi
timeout 30 "$CLI" --addr "$addr_hy" --shutdown
wait "$hy_pid" || { echo "hybrid server exited non-zero"; exit 1; }
hy_pid=""

# Capture -> replay gate: journal a served load, replay it offline twice
# (byte-identical SimReports) and once through every scheme by the
# trace_replay example, then drive it back through a fresh live server
# and require the wire diff to pass.
echo "==> capture/replay gate (journal, offline bit-exactness, live diff)"
"$SRV" --port 0 --shards 2 --time-scale 200 --seed 44 \
    --capture "$tmpdir/load.csv" > "$tmpdir/server_cap.log" &
cap_pid=$!
addr_cap="$(wait_addr "$tmpdir/server_cap.log")"
timeout 120 "$CLI" --addr "$addr_cap" --requests 2000 --connections 2 \
    --depth 8 --seed 17 > "$tmpdir/capload.json"
grep -q '"completed":2000' "$tmpdir/capload.json"
timeout 30 "$CLI" --addr "$addr_cap" --shutdown
wait "$cap_pid" || { echo "capture server exited non-zero"; exit 1; }
cap_pid=""
grep -q '^# rif-capture v1:' "$tmpdir/load.csv"
[ "$(grep -vc '^#' "$tmpdir/load.csv")" = "2000" ]

timeout 60 "$CLI" --replay-offline "$tmpdir/load.csv" > "$tmpdir/replay1.json"
timeout 60 "$CLI" --replay-offline "$tmpdir/load.csv" > "$tmpdir/replay2.json"
diff "$tmpdir/replay1.json" "$tmpdir/replay2.json"
grep -q '"completed_requests": 2000' "$tmpdir/replay1.json"
# The same capture through every scheme, by the example's file path.
cargo run --release --quiet --example trace_replay -- "$tmpdir/load.csv" \
    > "$tmpdir/trace_replay.txt"
for label in SSDzero SSDone SENC SWR SWR+ RPSSD RiFSSD; do
    grep -q "^$label " "$tmpdir/trace_replay.txt" ||
        { echo "trace_replay printed no $label row"; exit 1; }
done

"$SRV" --port 0 --shards 2 --time-scale 200 --seed 45 > "$tmpdir/server_rp.log" &
rp_pid=$!
addr_rp="$(wait_addr "$tmpdir/server_rp.log")"
timeout 120 "$CLI" --addr "$addr_rp" --replay "$tmpdir/load.csv" \
    --speed 20 --batch 4 > "$tmpdir/livereplay.json"
cat "$tmpdir/livereplay.json"
grep -q '"pass":true' "$tmpdir/livereplay.json"
timeout 30 "$CLI" --addr "$addr_rp" --shutdown
wait "$rp_pid" || { echo "replay server exited non-zero"; exit 1; }
rp_pid=""

# Event-loop high-concurrency gate: 10k requests over 1k connections
# dealt onto two client threads — every request must
# complete with zero connection, protocol, or terminal errors, and the
# server must have actually run the readiness loop.
echo "==> event-loop gate (2 client threads, 1000 connections, 10k requests)"
ulimit -n 8192 2>/dev/null || true
"$SRV" --port 0 --shards 2 --time-scale 500 --inflight-limit 8192 \
    --seed 46 > "$tmpdir/server_mux.log" &
mux_pid=$!
addr_mux="$(wait_addr "$tmpdir/server_mux.log")"
timeout 180 "$CLI" --addr "$addr_mux" --threads 2 --connections 1000 \
    --depth 1 --requests 10000 --max-busy-retries 1000000 --seed 5 \
    > "$tmpdir/mux.json"
cat "$tmpdir/mux.json"
grep -q '"completed":10000' "$tmpdir/mux.json"
grep -q '"conn_errors":0' "$tmpdir/mux.json"
grep -q '"protocol_errors":0' "$tmpdir/mux.json"
grep -q '"failed":0' "$tmpdir/mux.json"
timeout 30 "$CLI" --addr "$addr_mux" --stats > "$tmpdir/mux_stats.txt"
grep -q '^gauge server\.poller_is_epoll ' "$tmpdir/mux_stats.txt"
grep -q '^counter server\.epoll_wakeups ' "$tmpdir/mux_stats.txt"
timeout 30 "$CLI" --addr "$addr_mux" --shutdown
wait "$mux_pid" || { echo "mux server exited non-zero"; exit 1; }
mux_pid=""

# Bench smoke: CI-sized, leaves its artifact in the temp dir (the
# checked-in BENCH_server.json is the full 10k run).
echo "==> bench smoke (scripts/bench_server.sh --smoke)"
sh scripts/bench_server.sh --smoke --out "$tmpdir/BENCH_server.json" > /dev/null
grep -q '"event_loop": {"completed":20000' "$tmpdir/BENCH_server.json"

# Hybrid sweep smoke: the experiment exits non-zero unless RiF's
# relative win on QLC exceeds its win on TLC (the tentpole acceptance
# criterion), so running it IS the gate.
echo "==> hybrid sweep smoke (QLC win must widen vs TLC)"
"$BENCH" run hybrid_sweep --quick > /dev/null

# Chaos gate: 10k requests through the fault-injecting proxy — 10% drop,
# 5% delay, 2% duplicate, one mid-run worker kill — must finish under the
# hard timeout with a PASS verdict from the contract checker, and the
# seeded fault schedule must reproduce byte-for-byte.
echo "==> chaos gate (fault proxy + worker kill + contract checker)"
cargo build -q --release -p rif-chaos
CHAOS=./target/release/rif-chaos
plan='seed=42,up.drop=0.1,down.delay=0.05,down.delay_us=2000,up.dup=0.02,kill=0@2000+50'
"$CHAOS" schedule --plan "$plan" --conns 4 --frames 4096 > "$tmpdir/sched1.json"
"$CHAOS" schedule --plan "$plan" --conns 4 --frames 4096 > "$tmpdir/sched2.json"
diff "$tmpdir/sched1.json" "$tmpdir/sched2.json"
timeout 300 "$CHAOS" run --plan "$plan" --requests 10000 --connections 4 \
    --depth 16 --shards 2 --deadline-ms 200 --workload-seed 7 > "$tmpdir/chaos.json"
cat "$tmpdir/chaos.json"
grep -q '"verdict":"PASS"' "$tmpdir/chaos.json"
grep -q '"kills_fired":1' "$tmpdir/chaos.json"
if grep -q '"dropped":0,' "$tmpdir/chaos.json"; then
    echo "proxy injected no drops"
    exit 1
fi

# Cluster serving gate: two `--cluster` nodes behind the shard
# directory. The routed client must complete every request, cluster
# STATS must aggregate both nodes, and a live migration (forced to both
# owners in turn, so at least one actually moves) must bump the epoch
# and leave the cluster serving.
echo "==> cluster serving gate (directory + 2 nodes + routed load + migration)"
cargo build -q --release -p rif-cluster
CLU=./target/release/rif-cluster
"$SRV" --port 0 --shards 4 --cluster --learn --time-scale 500 \
    --seed 50 > "$tmpdir/node_a.log" &
node_a_pid=$!
"$SRV" --port 0 --shards 4 --cluster --learn --time-scale 500 \
    --seed 51 > "$tmpdir/node_b.log" &
node_b_pid=$!
addr_a="$(wait_addr "$tmpdir/node_a.log")"
addr_b="$(wait_addr "$tmpdir/node_b.log")"
"$CLU" directory --node "a=$addr_a" --node "b=$addr_b" --ranges 4 \
    > "$tmpdir/dir.log" &
dir_pid=$!
addr_dir="$(wait_addr "$tmpdir/dir.log" "rif-cluster directory listening on")"

timeout 180 "$CLU" load --directory "$addr_dir" --requests 5000 \
    --depth 16 --seed 7 > "$tmpdir/cluster_load.json"
cat "$tmpdir/cluster_load.json"
grep -q '"completed":5000' "$tmpdir/cluster_load.json"
grep -q '"protocol_errors":0' "$tmpdir/cluster_load.json"

timeout 30 "$CLU" stats --directory "$addr_dir" > "$tmpdir/cluster_stats.txt"
grep -q '^# rif-cluster-stats v1 nodes=2$' "$tmpdir/cluster_stats.txt"
grep -q '^cluster counter server\.requests\.read ' "$tmpdir/cluster_stats.txt"
grep -q '^node a counter ' "$tmpdir/cluster_stats.txt"
grep -q '^node b counter ' "$tmpdir/cluster_stats.txt"
# Replication's offered-but-unshipped backlog is on every cluster node.
grep -q '^node a gauge server\.repl\.queued ' "$tmpdir/cluster_stats.txt"
grep -q '^node b gauge server\.repl\.queued ' "$tmpdir/cluster_stats.txt"

# Whichever node owns range 0, migrating it to b and then to a moves it
# at least once; afterwards a owns it and the epoch has advanced.
timeout 30 "$CLU" migrate --directory "$addr_dir" --range 0 --node b \
    > /dev/null
timeout 30 "$CLU" migrate --directory "$addr_dir" --range 0 --node a \
    > "$tmpdir/cluster_map.txt"
grep -q '^assign 0 a$' "$tmpdir/cluster_map.txt"
if grep -q 'epoch=1 ' "$tmpdir/cluster_map.txt"; then
    echo "migration never bumped the epoch"
    exit 1
fi
timeout 180 "$CLU" load --directory "$addr_dir" --requests 2000 \
    --depth 16 --seed 8 > "$tmpdir/cluster_load2.json"
grep -q '"completed":2000' "$tmpdir/cluster_load2.json"

timeout 30 "$CLI" --addr "$addr_dir" --shutdown
wait "$dir_pid" || { echo "directory exited non-zero"; exit 1; }
dir_pid=""
timeout 30 "$CLI" --addr "$addr_a" --shutdown
wait "$node_a_pid" || { echo "cluster node a exited non-zero"; exit 1; }
node_a_pid=""
timeout 30 "$CLI" --addr "$addr_b" --shutdown
wait "$node_b_pid" || { echo "cluster node b exited non-zero"; exit 1; }
node_b_pid=""

# Cluster chaos gate: kill one node mid-load, rebalance its ranges onto
# the survivor — the strict contract checker must still pass and the
# directory must really have moved ranges. Like the two gates below it
# is sized so the fault-free load lasts twice the last scheduled fault
# instant at the release router's measured speed: here 150k rps
# unproxied against the rebalance at 250 ms.
echo "==> cluster chaos gate (kill + rebalance, contract checker)"
timeout 300 "$CHAOS" cluster --requests 80000 --seed 3 > "$tmpdir/cluster_chaos.json"
cat "$tmpdir/cluster_chaos.json"
grep -q '"verdict":"PASS"' "$tmpdir/cluster_chaos.json"
if grep -q '"ranges_moved":0' "$tmpdir/cluster_chaos.json"; then
    echo "rebalance moved no ranges"
    exit 1
fi
# The kill must land mid-run: the router's connection to the dead node
# shows up as at least one journal-level connection loss.
if grep -q '"conn_losses":0' "$tmpdir/cluster_chaos.json"; then
    echo "kill was not client-visible (load finished before the kill?)"
    exit 1
fi

# Replication gate (the cluster-hardening acceptance bar): three RF=2
# nodes, hard-kill the hottest-range primary at 150ms AND one-way
# partition a second node for 250ms, restart the directory mid-run.
# The binary exits non-zero unless the strict contract checker passes
# AND no replicated-range read chain failed, so its exit code is the
# gate; the greps pin the fault schedule actually fired and the
# restarted directory restored the map byte-identically. (48k rps
# through three proxied nodes against the partition healing at 370 ms.)
echo "==> replication gate (RF=2, kill primary + one-way partition)"
timeout 300 "$CHAOS" cluster --requests 40000 --nodes 3 --replicas 2 \
    --seed 11 --deadline-ms 300 --kill-after-ms 150 \
    --rebalance-after-ms 100 --dir-restart-ms 350 \
    --plan "seed=9,part=2:up@120+250" > "$tmpdir/repl_gate.json"
cat "$tmpdir/repl_gate.json"
grep -q '"verdict":"PASS"' "$tmpdir/repl_gate.json"
grep -q '"kills_fired":1,' "$tmpdir/repl_gate.json"
grep -q '"failed_replicated_reads":0,' "$tmpdir/repl_gate.json"
grep -q '"dir_restart_identical":true' "$tmpdir/repl_gate.json"
if grep -q '"partitions_fired":0,' "$tmpdir/repl_gate.json"; then
    echo "partition window never fired"
    exit 1
fi
if grep -q '"conn_losses":0,' "$tmpdir/repl_gate.json"; then
    echo "node kill was not client-visible"
    exit 1
fi

# Multi-kill chaos gate: four RF=2 nodes behind the fault proxy, two
# seeded node kills (150ms and 450ms) plus a one-way partition window —
# the two survivors must keep every range at full replication, so the
# same zero-failed-replicated-reads bar applies. (52k rps through four
# proxied nodes against the second rebalance at 550 ms.)
echo "==> multi-kill chaos gate (4 nodes, 2 seeded kills + partition)"
timeout 300 "$CHAOS" cluster --requests 60000 --nodes 4 --replicas 2 \
    --seed 11 --deadline-ms 300 --rebalance-after-ms 100 \
    --plan "seed=9,part=1:up@120+250,nodekill=1@150,nodekill=3@450" \
    > "$tmpdir/multikill_gate.json"
cat "$tmpdir/multikill_gate.json"
grep -q '"verdict":"PASS"' "$tmpdir/multikill_gate.json"
grep -q '"kills_fired":2,' "$tmpdir/multikill_gate.json"
grep -q '"failed_replicated_reads":0,' "$tmpdir/multikill_gate.json"
if grep -q '"partitions_fired":0,' "$tmpdir/multikill_gate.json"; then
    echo "partition window never fired"
    exit 1
fi

# Capture check: every experiment regenerated at full size with the
# default seed must equal results/<name>.txt byte for byte — the numbers
# EXPERIMENTS.md quotes are read off those files.
echo "==> capture check (rif-bench check: results/*.txt regenerate byte-for-byte)"
"$BENCH" check

if $in_git; then
    echo "==> work-tree guard (no step rewrote a tracked file)"
    tree_state > "$tmpdir/tree_after.txt"
    if ! diff "$tmpdir/tree_before.txt" "$tmpdir/tree_after.txt"; then
        echo "a CI step modified the tracked files above (checksum size path)"
        exit 1
    fi
fi

echo "==> ci.sh: all green"
