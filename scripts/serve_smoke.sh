#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the nde-serve daemon, built
# with the race detector: register a dataset over real HTTP, hammer
# /v1/importance from concurrent clients and assert the neighbor index
# was built exactly once (singleflight), run a what-if, drain on SIGTERM
# and check the flushed ledger; then a second instance with a budget of
# one slot and no queue to assert load shedding (429) and drain with an
# async run still in flight. `make serve-smoke` runs this; scripts/
# check.sh includes it unless NDE_SKIP_SMOKE=1.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

fetch() { # fetch URL — curl or wget, whichever exists
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

post() { # post URL BODY-FILE — prints response body, fails on HTTP error
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -X POST -H 'Content-Type: application/json' \
            --data-binary @"$2" "$1"
    else
        wget -qO- --header='Content-Type: application/json' \
            --post-file="$2" "$1"
    fi
}

post_any() { # post URL BODY-FILE — prints response body, any status
    if command -v curl >/dev/null 2>&1; then
        curl -sS -X POST -H 'Content-Type: application/json' \
            --data-binary @"$2" "$1" || true
    else
        wget -qO- --content-on-error --header='Content-Type: application/json' \
            --post-file="$2" "$1" || true
    fi
}

start_daemon() { # start_daemon STDERR-FILE ARGS... — sets pid and addr
    err="$1"
    shift
    "$tmp/nde-serve" -addr 127.0.0.1:0 "$@" 2>"$err" &
    pid=$!
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr="$(sed -n 's/^nde-serve: listening on //p' "$err" | head -n1)"
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: nde-serve exited before serving" >&2
            cat "$err" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$addr" ]; then
        echo "FAIL: no listen address on stderr after 10s" >&2
        exit 1
    fi
}

drain_daemon() { # drain_daemon STDERR-FILE — SIGTERM, expect exit 0
    kill -TERM "$pid"
    status=0
    wait "$pid" || status=$?
    pid=""
    if [ "$status" -ne 0 ]; then
        echo "FAIL: exit status $status after SIGTERM, want 0" >&2
        cat "$1" >&2
        exit 1
    fi
    grep -q 'in-flight work finished' "$1" || {
        echo "FAIL: no drain notice on stderr" >&2
        cat "$1" >&2
        exit 1
    }
}

echo "==> building nde-serve (race detector on)"
go build -race -o "$tmp/nde-serve" ./cmd/nde-serve

# Deterministic two-cluster registration bodies. The big one makes the
# neighbor-index build slow enough that concurrent clients overlap it.
awk 'BEGIN {
    n = 4000; v = 600;
    printf "{\"train\":{\"x\":[";
    for (i = 0; i < n; i++) {
        c = i % 2; b = c * 4; j = (i % 17) * 0.05;
        printf "%s[%g,%g,%g,%g]", (i ? "," : ""), b + j, b - j, b + 2 * j, b - 2 * j;
    }
    printf "],\"y\":[";
    for (i = 0; i < n; i++) printf "%s%d", (i ? "," : ""), i % 2;
    printf "]},\"valid\":{\"x\":[";
    for (i = 0; i < v; i++) {
        c = i % 2; b = c * 4; j = (i % 13) * 0.07;
        printf "%s[%g,%g,%g,%g]", (i ? "," : ""), b + j, b - j, b + 2 * j, b - 2 * j;
    }
    printf "],\"y\":[";
    for (i = 0; i < v; i++) printf "%s%d", (i ? "," : ""), i % 2;
    printf "]}}";
}' >"$tmp/big.json"

awk 'BEGIN {
    n = 400; v = 60;
    printf "{\"train\":{\"x\":[";
    for (i = 0; i < n; i++) {
        c = i % 2; b = c * 4; j = (i % 11) * 0.06;
        printf "%s[%g,%g]", (i ? "," : ""), b + j, b - j;
    }
    printf "],\"y\":[";
    for (i = 0; i < n; i++) printf "%s%d", (i ? "," : ""), (i % 7 == 0 ? 1 - i % 2 : i % 2);
    printf "]},\"valid\":{\"x\":[";
    for (i = 0; i < v; i++) {
        c = i % 2; b = c * 4;
        printf "%s[%g,%g]", (i ? "," : ""), b + (i % 9) * 0.08, b;
    }
    printf "],\"y\":[";
    for (i = 0; i < v; i++) printf "%s%d", (i ? "," : ""), i % 2;
    printf "]},\"test\":{\"x\":[";
    for (i = 0; i < v; i++) {
        c = i % 2; b = c * 4;
        printf "%s[%g,%g]", (i ? "," : ""), b + (i % 8) * 0.09, b;
    }
    printf "],\"y\":[";
    for (i = 0; i < v; i++) printf "%s%d", (i ? "," : ""), i % 2;
    printf "]},\"truth\":[";
    for (i = 0; i < n; i++) printf "%s%d", (i ? "," : ""), i % 2;
    printf "]}";
}' >"$tmp/clean.json"

echo "==> phase A: daemon with a wide budget (every client runs at once)"
start_daemon "$tmp/stderrA" -slots 12 -ledger "$tmp/runA.jsonl"
echo "    listening on $addr"

fetch "http://$addr/healthz" | grep -q ok || {
    echo "FAIL: /healthz" >&2
    exit 1
}
fetch "http://$addr/readyz" | grep -q ready || {
    echo "FAIL: /readyz" >&2
    exit 1
}

echo "==> registering dataset"
post "http://$addr/v1/datasets" "$tmp/big.json" >"$tmp/reg.json"
id="$(sed -n 's/.*"id":"\(d-[0-9a-f]*\)".*/\1/p' "$tmp/reg.json")"
[ -n "$id" ] || {
    echo "FAIL: no dataset id in $(cat "$tmp/reg.json")" >&2
    exit 1
}
echo "    dataset $id"

# Nine concurrent clients: six distinct k values prove the neighbor index
# is shared across different score keys (one build), and three identical
# k=5 clients prove score-store singleflight (later arrivals block on the
# winner's multi-second Shapley build and are counted as waits).
echo "==> 9 concurrent importance clients (k 3..8 plus three k=5)"
clients=""
i=0
for k in 3 4 5 6 7 8 5 5 5; do
    i=$((i + 1))
    printf '{"dataset":"%s","k":%d}' "$id" "$k" >"$tmp/imp$i.json"
    post "http://$addr/v1/importance" "$tmp/imp$i.json" >"$tmp/scores$i.json" &
    clients="$clients $!"
done
# wait on the client pids only — a bare `wait` would also wait on the
# backgrounded daemon and hang forever
for c in $clients; do
    wait "$c" || {
        echo "FAIL: an importance client failed" >&2
        exit 1
    }
done
i=0
for k in 3 4 5 6 7 8 5 5 5; do
    i=$((i + 1))
    grep -q '"scores"' "$tmp/scores$i.json" || {
        echo "FAIL: importance client $i (k=$k) returned $(head -c200 "$tmp/scores$i.json")" >&2
        exit 1
    }
done

echo "==> metrics: neighbor index built once, identical clients waited"
fetch "http://$addr/metrics" >"$tmp/metricsA"
misses="$(awk '$1 == "importance_neighbor_index_misses_total" {print $2}' "$tmp/metricsA")"
waits="$(awk '$1 == "serve_scores_waits_total" {print $2}' "$tmp/metricsA")"
if [ "${misses:-0}" != "1" ]; then
    echo "FAIL: importance_neighbor_index_misses_total = '$misses', want 1 (duplicate index builds)" >&2
    exit 1
fi
if [ "${waits:-0}" -lt 1 ] 2>/dev/null; then
    echo "FAIL: serve_scores_waits_total = '$waits', want > 0 (identical clients never shared the in-flight build)" >&2
    exit 1
fi
echo "    index misses=$misses score waits=$waits"

echo "==> what-if removals"
printf '{"dataset":"%s","variants":[{"name":"drop-ten","remove":[0,1,2,3,4,5,6,7,8,9]}]}' "$id" >"$tmp/wi.json"
post "http://$addr/v1/whatif" "$tmp/wi.json" | grep -q '"drop-ten"' || {
    echo "FAIL: what-if response missing variant" >&2
    exit 1
}
# the what-if votes over the index the importance clients built
misses="$(fetch "http://$addr/metrics" | awk '$1 == "importance_neighbor_index_misses_total" {print $2}')"
if [ "${misses:-0}" != "1" ]; then
    echo "FAIL: importance_neighbor_index_misses_total after what-if = '$misses', want 1 (what-if built its own index)" >&2
    exit 1
fi

echo "==> SIGTERM drain (phase A)"
drain_daemon "$tmp/stderrA"
head -n1 "$tmp/runA.jsonl" | grep -q '"t":"header"' || {
    echo "FAIL: ledger A does not start with a header" >&2
    exit 1
}
for op in ServeRegister ServeImportance ServeWhatIf; do
    grep -q "\"op\":\"$op\"" "$tmp/runA.jsonl" || {
        echo "FAIL: ledger A missing $op record" >&2
        exit 1
    }
done

echo "==> phase B: daemon with -slots 1 -queue 1 (load shedding)"
start_daemon "$tmp/stderrB" -slots 1 -queue 1 -ledger "$tmp/runB.jsonl"
echo "    listening on $addr"

post "http://$addr/v1/datasets" "$tmp/clean.json" >"$tmp/regB.json"
idB="$(sed -n 's/.*"id":"\(d-[0-9a-f]*\)".*/\1/p' "$tmp/regB.json")"
[ -n "$idB" ] || {
    echo "FAIL: no dataset id in $(cat "$tmp/regB.json")" >&2
    exit 1
}
# the big dataset again: its cold-cache importance run holds the only
# slot for several seconds, long enough to observe the queue and the shed
post "http://$addr/v1/datasets" "$tmp/big.json" >"$tmp/regBig.json"
idBig="$(sed -n 's/.*"id":"\(d-[0-9a-f]*\)".*/\1/p' "$tmp/regBig.json")"

echo "==> async importance on the big dataset occupies the only slot"
printf '{"dataset":"%s","k":3,"async":true}' "$idBig" >"$tmp/impBig.json"
post "http://$addr/v1/importance" "$tmp/impBig.json" >"$tmp/occresp.json"
grep -q '"run":"r-' "$tmp/occresp.json" || {
    echo "FAIL: async importance not accepted: $(cat "$tmp/occresp.json")" >&2
    exit 1
}

echo "==> async cleaning fills the queue"
printf '{"dataset":"%s","strategies":["knn-shapley","random"],"batch":4,"budget":80,"async":true}' "$idB" >"$tmp/cl.json"
# blocks in the admission queue until the slot frees, so run in background
post "http://$addr/v1/cleaning" "$tmp/cl.json" >"$tmp/clresp.json" &
clpid=$!
i=0
while [ $i -lt 100 ]; do
    depth="$(fetch "http://$addr/metrics" | awk '$1 == "serve_budget_queue_depth" {print $2}')"
    [ "${depth:-0}" = "1" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ "${depth:-0}" != "1" ]; then
    echo "FAIL: serve_budget_queue_depth = '$depth', want 1 (cleaning never queued)" >&2
    exit 1
fi

echo "==> next computation is shed with 429/busy (slot and queue both full)"
printf '{"dataset":"%s","k":3}' "$idB" >"$tmp/impB.json"
post_any "http://$addr/v1/importance" "$tmp/impB.json" >"$tmp/shed.json"
grep -q '"class":"busy"' "$tmp/shed.json" || {
    echo "FAIL: expected busy shed, got $(head -c200 "$tmp/shed.json")" >&2
    exit 1
}

wait "$clpid" || {
    echo "FAIL: queued async cleaning client failed" >&2
    exit 1
}
grep -q '"run":"r-' "$tmp/clresp.json" || {
    echo "FAIL: async cleaning not accepted: $(cat "$tmp/clresp.json")" >&2
    exit 1
}

echo "==> SIGTERM drains with async runs still in flight"
drain_daemon "$tmp/stderrB"
grep -q '"op":"ServeCleaning"' "$tmp/runB.jsonl" || {
    echo "FAIL: ledger B missing the drained ServeCleaning record" >&2
    exit 1
}

echo "OK"
