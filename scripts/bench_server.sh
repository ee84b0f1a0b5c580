#!/usr/bin/env sh
# Front-door benchmark: the event loop against connection count.
#
#   scripts/bench_server.sh [--smoke] [--out FILE]
#
# Drives a closed loop of many connections on a few client threads
# (`rif-client --threads N`) against rif-server and writes one JSON
# document (default BENCH_server.json):
#
# - head_to_head: 1k connections;
# - scale (full mode only): 10k connections — a failure is recorded as
#   {"error": ...}, not papered over;
# - cluster: the same routed closed loop against a one-node and a
#   two-node cluster (rif-cluster directory + rif-server --cluster),
#   reporting aggregate throughput and p99 of two nodes vs one.
#
# `--smoke` is the CI-sized variant (1k connections only, fewer
# requests) that finishes in a couple minutes.
#
# The simulator clock is run hot (--time-scale 2000) so simulated flash
# latency is negligible against wall time: what is measured is the
# networking core, which is what this benchmark isolates. A run that
# fails or times out is recorded as {"error": ...} rather than
# aborting the script.
set -eu

cd "$(dirname "$0")/.."

MODE=full
OUT=BENCH_server.json
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) MODE=smoke ;;
        --out)
            shift
            OUT="$1"
            ;;
        *)
            echo "usage: scripts/bench_server.sh [--smoke] [--out FILE]" >&2
            exit 2
            ;;
    esac
    shift
done

# DEADLINE_MS is per-request: with every connection's request
# outstanding at once on a small host, seconds of honest queueing delay
# is the expected regime — a tight deadline would misreport queueing as
# failure.
H2H_CONNS=1000
SCALE_CONNS=10000
if [ "$MODE" = smoke ]; then
    REQUESTS=20000
    THREADS=2
    LIMIT=180
    DEADLINE_MS=60000
    CLUSTER_REQUESTS=10000
else
    REQUESTS=100000
    THREADS=4
    LIMIT=600
    DEADLINE_MS=240000
    CLUSTER_REQUESTS=50000
fi

# Each connection is one fd on both sides, plus listener/waker/pipes.
ulimit -n 20000 2>/dev/null || echo "bench: warning: cannot raise fd limit" >&2

cargo build -q --release -p rif-server -p rif-cluster
SRV=./target/release/rif-server
CLI=./target/release/rif-client
CLU=./target/release/rif-cluster

tmpdir="$(mktemp -d)"
server_pid=""
cluster_pids=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    for _p in $cluster_pids; do
        kill "$_p" 2>/dev/null || true
    done
    rm -rf "$tmpdir"
}
trap cleanup EXIT

# wait_addr LOG [PREFIX] — wait for a daemon's sentinel, echo "host:port".
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

# run_core NAME CONNS OUTFILE — one server + one many-connection load.
run_core() {
    _name="$1"
    _conns="$2"
    _json="$3"
    echo "==> $_name: $_conns connections, $REQUESTS requests" >&2
    "$SRV" --port 0 --shards 2 --time-scale 2000 --inflight-limit 65536 \
        --max-connections 0 --seed 42 > "$tmpdir/$_name.log" &
    server_pid=$!
    _addr="$(wait_addr "$tmpdir/$_name.log")"
    if timeout "$LIMIT" "$CLI" --addr "$_addr" --threads "$THREADS" \
        --connections "$_conns" --depth 1 --requests "$REQUESTS" \
        --max-busy-retries 1000000 --deadline-ms "$DEADLINE_MS" \
        --seed 7 > "$_json"; then
        cat "$_json" >&2
    else
        echo "bench: $_name failed or exceeded ${LIMIT}s" >&2
        printf '{"error":"%s failed or exceeded %ss at %s connections"}\n' \
            "$_name" "$LIMIT" "$_conns" > "$_json"
    fi
    timeout 30 "$CLI" --addr "$_addr" --shutdown > /dev/null 2>&1 \
        || kill "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    server_pid=""
}

# run_cluster NAME NNODES OUTFILE — NNODES `--cluster` servers behind a
# shard directory, one routed closed-loop load through the cluster
# client. Node and directory processes are torn down before returning.
run_cluster() {
    _name="$1"
    _nnodes="$2"
    _cjson="$3"
    echo "==> cluster: $_nnodes node(s), $CLUSTER_REQUESTS requests" >&2
    cluster_pids=""
    set --
    _i=0
    while [ "$_i" -lt "$_nnodes" ]; do
        "$SRV" --port 0 --shards 4 --cluster --time-scale 2000 \
            --inflight-limit 65536 --max-connections 0 --seed $((60 + _i)) \
            > "$tmpdir/$_name.node$_i.log" &
        cluster_pids="$cluster_pids $!"
        _i=$((_i + 1))
    done
    _i=0
    while [ "$_i" -lt "$_nnodes" ]; do
        _naddr="$(wait_addr "$tmpdir/$_name.node$_i.log")"
        set -- "$@" --node "n$_i=$_naddr"
        _i=$((_i + 1))
    done
    "$CLU" directory "$@" --ranges 4 > "$tmpdir/$_name.dir.log" &
    cluster_pids="$cluster_pids $!"
    _daddr="$(wait_addr "$tmpdir/$_name.dir.log" \
        "rif-cluster directory listening on")"
    if timeout "$LIMIT" "$CLU" load --directory "$_daddr" \
        --requests "$CLUSTER_REQUESTS" --depth 64 --seed 7 > "$_cjson"; then
        cat "$_cjson" >&2
    else
        echo "bench: $_name cluster run failed or exceeded ${LIMIT}s" >&2
        printf '{"error":"%s cluster run failed or exceeded %ss"}\n' \
            "$_name" "$LIMIT" > "$_cjson"
    fi
    for _p in $cluster_pids; do
        kill "$_p" 2>/dev/null || true
        wait "$_p" 2>/dev/null || true
    done
    cluster_pids=""
}

run_core event_loop "$H2H_CONNS" "$tmpdir/evt.json"
if [ "$MODE" = full ]; then
    run_core event_loop_10k "$SCALE_CONNS" "$tmpdir/evt10k.json"
fi
run_cluster cluster1 1 "$tmpdir/clu1.json"
run_cluster cluster2 2 "$tmpdir/clu2.json"

# field FILE KEY — pull one numeric field out of a flat report.
field() {
    sed -n "s/.*\"$2\":\([0-9.][0-9.]*\).*/\1/p" "$1"
}

clu1_rps="$(field "$tmpdir/clu1.json" throughput_rps)"
clu2_rps="$(field "$tmpdir/clu2.json" throughput_rps)"
clu1_p99="$(field "$tmpdir/clu1.json" p99)"
clu2_p99="$(field "$tmpdir/clu2.json" p99)"

if [ -n "$clu1_rps" ] && [ -n "$clu2_rps" ]; then
    cluster_speedup="$(awk "BEGIN { printf \"%.3f\", $clu2_rps / $clu1_rps }")"
    cluster_p99_ratio="$(awk "BEGIN { printf \"%.3f\", $clu1_p99 / $clu2_p99 }")"
else
    cluster_speedup=null
    cluster_p99_ratio=null
fi

{
    printf '{\n'
    printf '  "bench": "server_front_door",\n'
    printf '  "mode": "%s",\n' "$MODE"
    printf '  "requests": %s,\n' "$REQUESTS"
    printf '  "client_threads": %s,\n' "$THREADS"
    printf '  "head_to_head": {\n'
    printf '    "connections": %s,\n' "$H2H_CONNS"
    printf '    "event_loop": %s\n' "$(cat "$tmpdir/evt.json")"
    printf '  },\n'
    if [ "$MODE" = full ]; then
        printf '  "scale": {\n'
        printf '    "connections": %s,\n' "$SCALE_CONNS"
        printf '    "event_loop": %s\n' "$(cat "$tmpdir/evt10k.json")"
        printf '  },\n'
    fi
    printf '  "cluster": {\n'
    printf '    "requests": %s,\n' "$CLUSTER_REQUESTS"
    printf '    "single_node": %s,\n' "$(cat "$tmpdir/clu1.json")"
    printf '    "two_node": %s,\n' "$(cat "$tmpdir/clu2.json")"
    printf '    "aggregate_speedup": %s,\n' "$cluster_speedup"
    printf '    "p99_improvement": %s\n' "$cluster_p99_ratio"
    printf '  }\n'
    printf '}\n'
} > "$OUT"

echo "==> wrote $OUT"
cat "$OUT"
