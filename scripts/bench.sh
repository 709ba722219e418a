#!/bin/sh
# bench.sh — run the tracked benchmark series with -benchmem, five runs
# each (-count 5), and record them as JSON so the perf trajectory is
# tracked PR-over-PR: per benchmark the median ns/op, B/op and allocs/op
# over the runs, plus ns/op's min and max as its spread. Each file
# carries a "meta" header (git SHA, Go version, GOMAXPROCS, UTC date, run
# count) so numbers from different machines and commits stay
# comparable; the SHA gets a "-dirty" suffix when the source
# tree (everything but the BENCH_*.json files) differs from HEAD, i.e. the
# numbers belong to uncommitted changes on top of that commit. Four series
# are emitted: the importance/pipeline hot paths plus one serve-cold
# registration and the /v1/importance reply layer (BENCH_importance.json),
# the what-if fan-out and serve-warm's warm batch (BENCH_whatif.json),
# exact top-k and the full-argsort layer (BENCH_neighbor.json), and the
# delta-vs-rebuild incremental-maintenance gate (BENCH_incremental.json).
# `make bench` runs this.
#
# Usage: sh scripts/bench.sh [importance-output.json]
#   NDE_BENCHTIME=2s   benchtime per run of a benchmark (default 1s)
#   NDE_BENCH_FILTER   importance-series benchmark regexp override
#   NDE_BENCH_OUTDIR   directory for the series files (default repo root;
#                      bench_diff.sh points this at a temp dir)
set -eu
cd "$(dirname "$0")/.."

outdir="${NDE_BENCH_OUTDIR:-.}"
out="${1:-$outdir/BENCH_importance.json}"
filter="${NDE_BENCH_FILTER:-BenchmarkAblation|BenchmarkMCShapleyParallel|BenchmarkKNNShapley|BenchmarkKNNPredictBatch|BenchmarkPipelineRunObs|BenchmarkServeRegister|BenchmarkServeImportance}"
benchtime="${NDE_BENCHTIME:-1s}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

git_sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$git_sha" != unknown ] && [ -n "$(git status --porcelain -- . ':(exclude)BENCH_*.json')" ]; then
    git_sha="$git_sha-dirty"
fi
go_version="$(go version | awk '{print $3}')"
gomaxprocs="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)}"
run_date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# runs per benchmark; the recorded numbers are medians over them
count=5

# run_bench FILTER OUTPUT — run one benchmark series and write its JSON
run_bench() {
    echo "==> go test -bench '$1' -benchmem -benchtime $benchtime -count $count ."
    go test -run '^$' -bench "$1" -benchmem -benchtime "$benchtime" -count "$count" . | tee "$tmp"

    awk -v git_sha="$git_sha" -v go_version="$go_version" \
        -v gomaxprocs="$gomaxprocs" -v run_date="$run_date" -v count="$count" '
# median NAME FIELD — the middle value of FIELD over benchmark NAME'"'"'s
# runs (the lower middle of an even count) as its run printed it, or ""
# when a run did not report FIELD
function median(name, field,    n, i, j, v, t) {
    n = runs[name]
    for (i = 1; i <= n; i++) {
        v[i] = val[name, field, i]
        if (v[i] == "") return ""
    }
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
    return v[int((n + 1) / 2)]
}
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
    if (!(name in runs)) order[++names] = name
    n = ++runs[name]
    val[name, "ns", n] = ns
    val[name, "B", n] = bytes
    val[name, "allocs", n] = allocs
    if (n == 1 || ns + 0 < min[name] + 0) min[name] = ns
    if (n == 1 || ns + 0 > max[name] + 0) max[name] = ns
}
END {
    printf "{\n"
    printf "  \"meta\": {\"git_sha\": \"%s\", \"go_version\": \"%s\", \"gomaxprocs\": %s, \"date\": \"%s\", \"count\": %s},\n", git_sha, go_version, gomaxprocs, run_date, count
    print "  \"benchmarks\": ["
    for (k = 1; k <= names; k++) {
        name = order[k]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"ns_per_op_min\": %s, \"ns_per_op_max\": %s", name, median(name, "ns"), min[name], max[name]
        if ((b = median(name, "B")) != "")      printf ", \"bytes_per_op\": %s", b
        if ((a = median(name, "allocs")) != "") printf ", \"allocs_per_op\": %s", a
        printf "}%s\n", k < names ? "," : ""
    }
    print "  ]\n}"
}
' "$tmp" > "$2"

    echo "==> wrote $2"
}

run_bench "$filter" "$out"
run_bench "^BenchmarkWhatIf$" "$outdir/BENCH_whatif.json"
run_bench "^(BenchmarkNeighborTopK|BenchmarkNeighborOrder)$" "$outdir/BENCH_neighbor.json"
run_bench "^BenchmarkIncremental$" "$outdir/BENCH_incremental.json"
