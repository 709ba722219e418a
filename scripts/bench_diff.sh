#!/bin/sh
# bench_diff.sh — the perf-regression gate: re-run the tracked benchmark
# series into a temp directory and compare each benchmark's median ns/op,
# B/op and allocs/op (bench.sh records medians over five runs) against
# the checked-in BENCH_*.json baselines. Fails when any benchmark
# regresses on any of the three by more than the threshold (default 15%).
# Benchmarks present only on one side (just added, or just retired) are
# reported but never fail the gate — refresh the baselines with
# `make bench` when the set changes on purpose.
# `make bench-diff` runs this; scripts/check.sh runs it when NDE_BENCH=1.
#
# Usage: sh scripts/bench_diff.sh
#   NDE_BENCH_DIFF_PCT=15   allowed ns/op, B/op and allocs/op regression percentage
#   NDE_BENCHTIME=1s        benchtime per benchmark (passed through)
set -eu
cd "$(dirname "$0")/.."

threshold="${NDE_BENCH_DIFF_PCT:-15}"

fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT

echo "==> fresh benchmark run (comparing medians against checked-in baselines, +${threshold}% ns/op, B/op and allocs/op allowed)"
NDE_BENCH_OUTDIR="$fresh" sh scripts/bench.sh

# extract NAME NS BYTES ALLOCS from one of our generated JSON files (one
# benchmark object per line, a format bench.sh controls); BYTES or ALLOCS
# is "-" when the line has no bytes_per_op or allocs_per_op
extract() {
    awk '
function field(key,    line) {
    line = $0
    if (!sub(".*\"" key "\": ", "", line)) return "-"
    sub(/[^0-9.eE+-].*/, "", line)
    return line
}
/"name":/ {
    line = $0
    sub(/.*"name": "/, "", line); name = line; sub(/".*/, "", name)
    print name, field("ns_per_op"), field("bytes_per_op"), field("allocs_per_op")
}' "$1"
}

status=0
for base in BENCH_importance.json BENCH_whatif.json BENCH_neighbor.json BENCH_incremental.json; do
    if [ ! -f "$base" ]; then
        echo "--  $base: no checked-in baseline, skipping (run 'make bench' to record one)"
        continue
    fi
    echo "==> $base"
    extract "$base" > "$fresh/old.txt"
    extract "$fresh/$base" > "$fresh/new.txt"
    if ! awk -v threshold="$threshold" '
# pct OLD NEW — relative change in percent (0 against a zero baseline)
function pct(o, n) { return o > 0 ? (n - o) / o * 100 : 0 }
# gate OLD NEW UNIT — "" when either side lacks the value, else the change
# as text; marks the benchmark regressed past the threshold
function gate(o, n, unit,    p) {
    if (o == "-" || n == "-") return ""
    p = pct(o, n)
    if (p > threshold) verdict = "REGRESSION"
    return sprintf("  %s -> %s %s (%+.1f%%)", o, n, unit, p)
}
NR == FNR { old[$1] = $2; oldBytes[$1] = $3; oldAllocs[$1] = $4; next }
{
    new[$1] = $2
    if (!($1 in old)) { printf "  NEW   %-55s %12.0f ns/op (no baseline)\n", $1, $2; next }
    verdict = "ok"
    ns = gate(old[$1], $2, "ns/op")
    rest = gate(oldBytes[$1], $3, "B/op") gate(oldAllocs[$1], $4, "allocs/op")
    if (verdict != "ok") failed = 1
    printf "  %-5s %-55s%s%s\n", verdict, $1, ns, rest
}
END {
    for (name in old) if (!(name in new))
        printf "  GONE  %-55s (baseline has no fresh counterpart)\n", name
    exit failed ? 1 : 0
}' "$fresh/old.txt" "$fresh/new.txt"; then
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "bench_diff: median ns/op, B/op or allocs/op regression beyond ${threshold}% — investigate, or refresh baselines with 'make bench' if intentional" >&2
    exit 1
fi
echo "bench_diff: OK (no benchmark regressed more than ${threshold}% in median ns/op, B/op or allocs/op)"
