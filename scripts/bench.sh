#!/bin/sh
# bench.sh — run the tracked benchmark series with -benchmem and record
# them as JSON (name, ns/op, allocs/op, B/op) so the perf trajectory is
# tracked PR-over-PR. Each file carries a "meta" header (git SHA, Go
# version, GOMAXPROCS, UTC date) so numbers from different machines and
# commits stay comparable; the SHA gets a "-dirty" suffix when the source
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
#   NDE_BENCHTIME=2s   benchtime per benchmark (default 1s)
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

# run_bench FILTER OUTPUT — run one benchmark series and write its JSON
run_bench() {
    echo "==> go test -bench '$1' -benchmem -benchtime $benchtime ."
    go test -run '^$' -bench "$1" -benchmem -benchtime "$benchtime" . | tee "$tmp"

    awk -v git_sha="$git_sha" -v go_version="$go_version" \
        -v gomaxprocs="$gomaxprocs" -v run_date="$run_date" '
BEGIN {
    printf "{\n"
    printf "  \"meta\": {\"git_sha\": \"%s\", \"go_version\": \"%s\", \"gomaxprocs\": %s, \"date\": \"%s\"},\n", git_sha, go_version, gomaxprocs, run_date
    print "  \"benchmarks\": ["
    first = 1
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
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns
    if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { print "\n  ]\n}" }
' "$tmp" > "$2"

    echo "==> wrote $2"
}

run_bench "$filter" "$out"
run_bench "^BenchmarkWhatIf$" "$outdir/BENCH_whatif.json"
run_bench "^(BenchmarkNeighborTopK|BenchmarkNeighborOrder)$" "$outdir/BENCH_neighbor.json"
run_bench "^BenchmarkIncremental$" "$outdir/BENCH_incremental.json"
