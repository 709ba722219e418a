#!/bin/sh
# bench_diff.sh — the perf-regression gate, against a same-host parent:
# build the root package's test binary from the base revision (a
# `git archive` of ${BASE:-HEAD} unpacked in a temp dir) and from the
# working tree, run the tracked series (scripts/bench_series.sh) with the
# two binaries for five rounds, one benchmark at a time with both sides
# back to back, and gate each benchmark's ns/op, B/op and allocs/op on
# the median over the rounds of its paired change against the base.
# Fails when any benchmark regresses on any of the three by more than the
# threshold (default 15%). Benchmarks present on one side only (just
# added, or just retired) are reported but never fail the gate. The
# BENCH_*.json files are the record `make bench` writes, not the
# reference: numbers from another day or host say nothing about a change.
# `make bench-diff` runs this; scripts/check.sh runs it when NDE_BENCH=1.
#
# Usage: sh scripts/bench_diff.sh
#   BASE=HEAD               revision to compare the working tree against
#   NDE_BENCH_DIFF_PCT=15   allowed ns/op, B/op and allocs/op regression percentage
#   NDE_BENCHTIME=1s        benchtime per run of a benchmark
set -eu
cd "$(dirname "$0")/.."
. scripts/bench_series.sh

base="${BASE:-HEAD}"
threshold="${NDE_BENCH_DIFF_PCT:-15}"
benchtime="${NDE_BENCHTIME:-1s}"
rounds=5
filter="($series_importance)|$series_whatif|$series_neighbor|$series_incremental"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> building root test binaries: $base (git archive) and the working tree"
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" .)
go test -c -o "$tmp/new.test" .

# dir SIDE — the tree SIDE's binary runs from
dir() {
    if [ "$1" = base ]; then echo "$tmp/base"; else echo .; fi
}

# run SIDE NAME — one run of top-level benchmark NAME (its sub-benchmarks
# included) with SIDE's binary, from its own tree, appended to $tmp/SIDE.txt
run() {
    (cd "$(dir "$1")" && "$tmp/$1.test" -test.run '^$' -test.bench "^$2\$" -test.benchmem \
        -test.benchtime "$benchtime" -test.count 1) >>"$tmp/$1.txt"
}

# the tracked top-level benchmarks either binary has
names=$(for side in base new; do
    (cd "$(dir "$side")" && "$tmp/$side.test" -test.list "$filter")
done | grep '^Benchmark' | sort -u)

# Each round runs every benchmark on both sides back to back, so the two
# runs of a pair see the same phase of a shared host's speed, which can
# drift for minutes; the side that goes first alternates by round.
round=1
while [ "$round" -le "$rounds" ]; do
    echo "==> round $round/$rounds"
    if [ $((round % 2)) -eq 1 ]; then order="base new"; else order="new base"; fi
    for name in $names; do
        for side in $order; do
            run "$side" "$name"
        done
    done
    round=$((round + 1))
done

echo "==> paired medians over $rounds rounds, $base -> working tree (+${threshold}% ns/op, B/op and allocs/op allowed)"
awk -v threshold="$threshold" '
# median V N — the middle of V[1..N] (the lower middle of an even N);
# sorts V in place
function median(v, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
    return v[int((n + 1) / 2)]
}
# side SIDE NAME FIELD — the median of FIELD over the runs of NAME on SIDE, or
# "-" when a run did not report FIELD
function side(s, name, field,    n, i, v) {
    n = runs[s, name]
    for (i = 1; i <= n; i++) {
        v[i] = val[s, name, field, i]
        if (v[i] == "") return "-"
    }
    return median(v, n)
}
# gate NAME FIELD UNIT — "" when either side lacks FIELD, else the change
# as text. The change is the median over rounds of new/base − 1, each
# round pairing the two runs made back to back, so a host slowdown that
# spans both runs of a pair cancels; past the threshold it marks the
# benchmark regressed.
function gate(name, field, unit,    o, n, k, i, r, p, o1, n1) {
    o = side("base", name, field)
    n = side("new", name, field)
    if (o == "-" || n == "-") return ""
    k = runs["base", name] < runs["new", name] ? runs["base", name] : runs["new", name]
    for (i = 1; i <= k; i++) {
        o1 = val["base", name, field, i] + 0
        n1 = val["new", name, field, i] + 0
        r[i] = o1 > 0 ? n1 / o1 : (n1 > 0 ? 2 : 1)
    }
    p = (median(r, k) - 1) * 100
    if (p > threshold) verdict = "REGRESSION"
    return sprintf("  %s -> %s %s (%+.1f%%)", o, n, unit, p)
}
FNR == 1 { s = (FILENAME ~ /base\.txt$/) ? "base" : "new" }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (!((s, name) in runs)) { order[s, ++names[s]] = name; seen[s, name] = 1 }
    k = ++runs[s, name]
    val[s, name, "ns", k] = ns
    val[s, name, "B", k] = bytes
    val[s, name, "allocs", k] = allocs
}
END {
    for (i = 1; i <= names["new"]; i++) {
        name = order["new", i]
        if (!(("base", name) in seen)) {
            printf "  NEW   %-55s %12s ns/op (not in the base)\n", name, side("new", name, "ns")
            continue
        }
        verdict = "ok"
        ns = gate(name, "ns", "ns/op")
        rest = gate(name, "B", "B/op") gate(name, "allocs", "allocs/op")
        if (verdict != "ok") failed = 1
        printf "  %-10s %-50s%s%s\n", verdict, name, ns, rest
    }
    for (i = 1; i <= names["base"]; i++) {
        name = order["base", i]
        if (!(("new", name) in seen))
            printf "  GONE  %-55s (in the base only)\n", name
    }
    exit failed ? 1 : 0
}' "$tmp/base.txt" "$tmp/new.txt" || {
    echo "bench_diff: median ns/op, B/op or allocs/op regression beyond ${threshold}% against $base on this host — investigate" >&2
    exit 1
}
echo "bench_diff: OK (no benchmark regressed more than ${threshold}% against $base in median ns/op, B/op or allocs/op)"
