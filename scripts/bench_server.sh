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
#   {"error": ...}, not papered over.
#
# The routed cluster path is priced by rif-perf's serve_cluster workload
# (perf/), not here.
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
else
    REQUESTS=100000
    THREADS=4
    LIMIT=600
    DEADLINE_MS=240000
fi

# Each connection is one fd on both sides, plus listener/waker/pipes.
ulimit -n 20000 2>/dev/null || echo "bench: warning: cannot raise fd limit" >&2

cargo build -q --release -p rif-server
SRV=./target/release/rif-server
CLI=./target/release/rif-client

tmpdir="$(mktemp -d)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT

# wait_addr LOG — wait for the server's sentinel, echo "host:port".
wait_addr() {
    _log="$1"
    _prefix="rif-server listening on"
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

run_core event_loop "$H2H_CONNS" "$tmpdir/evt.json"
if [ "$MODE" = full ]; then
    run_core event_loop_10k "$SCALE_CONNS" "$tmpdir/evt10k.json"
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
    if [ "$MODE" = full ]; then
        printf '  },\n'
        printf '  "scale": {\n'
        printf '    "connections": %s,\n' "$SCALE_CONNS"
        printf '    "event_loop": %s\n' "$(cat "$tmpdir/evt10k.json")"
    fi
    printf '  }\n'
    printf '}\n'
} > "$OUT"

echo "==> wrote $OUT"
cat "$OUT"
