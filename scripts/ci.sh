#!/usr/bin/env sh
# Offline CI gate. Everything here must pass with no network access.
#
#   scripts/ci.sh
#
# Steps: formatting, release build (rif-bench, the one experiment
# binary, included), test suite (the property suites and the experiment
# registry's smoke runs are plain integration tests and run with it), the
# benchmark package's build plus all five of its workloads at smoke size
# (the two simulator ones twice on one seed: their reports must hash
# alike), a determinism check that
# --threads does not change a single CSV byte of any experiment, a trace
# gate that replays every simulated run of every experiment through the
# invariant checker, the lifetime-sweep smoke (learned-threshold retry
# activity against its checked-in envelope), the capture check (every
# experiment regenerated at full size, byte-for-byte against
# results/*.txt),
# a loopback serving smoke (rif-server + rif-client over TCP), the
# hybrid serving gate (rif-server --hybrid: clean foreground I/O while
# background migrations and refresh run, nonzero server.bg.* gauges),
# the hybrid sweep smoke (RiF's QLC+background win must widen vs
# TLC-only — the experiment self-gates via its exit code), the
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

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# perf/ is its own workspace compiled against crates/* by path: an API
# break there makes the benchmark driver exit 101 with no result line,
# and nothing above builds it. Then the decode kernel end to end on the
# paper code: every successful decode must equal what was programmed.
echo "==> rif-perf builds; all five workloads --quick are correct, sim_* repeat per seed"
cargo build --release --offline --manifest-path perf/Cargo.toml
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

echo "==> lifetime-sweep smoke (learned thresholds inside the envelope)"
# Oracle-vs-learned sweep over the CI scheme subset; learned-mode retry
# activity must stay inside the checked-in behavioural envelope
# (regenerate with --write-envelope and review the diff when the learner
# constants change intentionally).
"$BENCH" run lifetime_sweep --quick --schemes ci --seed 42 \
    --check-envelope results/lifetime_envelope.csv

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
# (byte-identical SimReports), then drive it back through a fresh live
# server and require the wire diff to pass.
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
# relative win under QLC+background exceeds its TLC-only win (the
# tentpole acceptance criterion), so running it IS the gate.
echo "==> hybrid sweep smoke (QLC+bg win must widen vs TLC-only)"
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
