#!/bin/sh
# check.sh — the repo's pre-merge gate: vet, formatting, build, and the
# full test suite under the race detector. `make check` runs this.
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

# contract-enforcing static analysis (determinism, panicsite, errwrap,
# obsguard, globalstate, stoptheworld, deadcode; see DESIGN.md §10). Skip with
# NDE_SKIP_LINT=1 when in a hurry.
if [ "${NDE_SKIP_LINT:-0}" != "1" ]; then
    echo "==> nde-lint"
    go run ./cmd/nde-lint
fi

# gofmt gate over tracked sources; testdata is excluded because the lint
# golden-test fixtures are deliberately unformatted.
echo "==> gofmt -l"
unformatted=$(git ls-files '*.go' | grep -v testdata | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

# every product is rounded before it is added, so the module computes
# the same bits on arm64 as on amd64 (which never fuses) and the Go body
# of the distance kernel is the AVX2 body's twin: arm64 must build, and
# its compiler must fuse no multiply-add at any line of an nde package —
# an explicit float64 conversion of the product forbids the fusion. The
# listing must show the distance kernel's Go body, so a build that
# prints nothing cannot pass.
echo "==> GOARCH=arm64 go build ./... + no fused multiply-add in any nde package"
GOARCH=arm64 go build ./...
GOARCH=arm64 go build -gcflags=-S ./... 2>&1 | awk -v root="($(pwd)/" '
/linalg\.pairwiseD2RowsGo/ { body = 1 }
index($3, root) == 1 && $4 ~ /^FN?M(ADD|SUB)[DS]$/ { print > "/dev/stderr"; fused = 1 }
END {
    if (!body) { print "arm64 listing shows no linalg.pairwiseD2RowsGo" > "/dev/stderr"; exit 1 }
    if (fused) { print "fused multiply-add in an nde package on arm64: round the product with float64(...)" > "/dev/stderr"; exit 1 }
}'

echo "==> go test -race ./..."
go test -race ./...

# drain admission used to race Drain's wait about one run in eight; a
# single pass lets a race that rare through, so the drain and lifecycle
# tests repeat, and so does the test of concurrent first /v1/cleaning
# requests sharing their dataset's test index
echo "==> go test -race -count=20 -run 'Drain|Lifecycle|CleaningSelectsOnce' (serve, nde-serve)"
go test -race -count=20 -run 'Drain|Lifecycle|CleaningSelectsOnce' ./internal/serve ./cmd/nde-serve

# the same for ml.IndexStore: its in-flight churn test, on a store of its
# own, the importance store tests (singleflight builds, bounded churn),
# and the what-if paths that vote over one index concurrently
echo "==> go test -race -count=20 -run 'InFlightSurvivesChurn|Singleflight|ChurnBounded|WhatIf' (ml, importance, pipeline)"
go test -race -count=20 -run 'InFlightSurvivesChurn|Singleflight|ChurnBounded|WhatIf' ./internal/ml ./internal/importance ./internal/pipeline

# bench/ is a module of its own, so the root vet and test runs above do not
# build it; it calls the internal importance, ml and facade APIs directly
echo "==> bench: go vet + go test"
(cd bench && go vet ./... && go test ./...)

# short deterministic fuzz pass over the CSV reader: replays the checked-in
# corpus, then a couple of seconds of fresh mutation
echo "==> go test -fuzz FuzzReadCSV (2s)"
go test -run='^FuzzReadCSV$' -fuzz='^FuzzReadCSV$' -fuzztime=2s ./internal/frame/

# the same for the /v1/datasets fast-path decoder, differential against
# encoding/json
echo "==> go test -fuzz FuzzDecodeRegister (2s)"
go test -run='^FuzzDecodeRegister$' -fuzz='^FuzzDecodeRegister$' -fuzztime=2s ./internal/serve/

# the /v1 compute endpoints on hostile bodies: every reply is 2xx, or 4xx
# with a classified ErrorResponse, never a 5xx
echo "==> go test -fuzz FuzzServeRequests (2s)"
go test -run='^FuzzServeRequests$' -fuzz='^FuzzServeRequests$' -fuzztime=2s ./internal/serve/

# its one-pass number scanner, differential against the literal through
# strconv.ParseFloat and strconv.ParseInt
echo "==> go test -fuzz FuzzRegisterNumber (2s)"
go test -run='^FuzzRegisterNumber$' -fuzz='^FuzzRegisterNumber$' -fuzztime=2s ./internal/serve/

# the what-if batch lineage, differential against checking every output
# row's provenance product against the variant's removals
echo "==> go test -fuzz FuzzWhatIfSurvivors (2s)"
go test -run='^FuzzWhatIfSurvivors$' -fuzz='^FuzzWhatIfSurvivors$' -fuzztime=2s ./internal/pipeline/

# the bottom-k selection the cleaning rounds read their batches from,
# differential against the full sort (RankAscending) for every prefix
echo "==> go test -fuzz FuzzBottomK (2s)"
go test -run='^FuzzBottomK$' -fuzz='^FuzzBottomK$' -fuzztime=2s ./internal/importance/

# the neighbor order table's radix argsort, differential against the
# (distance, index) comparator
echo "==> go test -fuzz FuzzArgsort (2s)"
go test -run='^FuzzArgsort$' -fuzz='^FuzzArgsort$' -fuzztime=2s ./internal/ml/

# the distance kernel's AVX2 body, differential against its Go body
echo "==> go test -fuzz FuzzPairwiseD2Rows (2s)"
go test -run='^FuzzPairwiseD2Rows$' -fuzz='^FuzzPairwiseD2Rows$' -fuzztime=2s ./internal/linalg/

# removal chains through KNNShapleyDerive, across compaction, differential
# against scoring and voting a rebuild over the survivors
echo "==> go test -fuzz FuzzRemoveRowsChain (2s)"
go test -run='^FuzzRemoveRowsChain$' -fuzz='^FuzzRemoveRowsChain$' -fuzztime=2s ./internal/importance/

# DebugSession call sequences (removals, including rejected ones, and
# reads) across compaction, differential against recomputing the
# survivors' scores and accuracy from scratch
echo "==> go test -fuzz FuzzDebugSession (2s)"
go test -run='^FuzzDebugSession$' -fuzz='^FuzzDebugSession$' -fuzztime=2s .

# race-stress gate at the quick (time-budgeted) scale; `make stress` runs
# the full GOMAXPROCS sweep. Skip with NDE_SKIP_STRESS=1 when in a hurry.
if [ "${NDE_SKIP_STRESS:-0}" != "1" ]; then
    echo "==> scripts/stress.sh quick"
    sh scripts/stress.sh quick
fi

# live ops plane smoke test: real HTTP scrape of a running binary plus a
# clean interrupt shutdown. Skip with NDE_SKIP_SMOKE=1.
if [ "${NDE_SKIP_SMOKE:-0}" != "1" ]; then
    echo "==> scripts/ops_smoke.sh"
    sh scripts/ops_smoke.sh
    echo "==> scripts/serve_smoke.sh"
    sh scripts/serve_smoke.sh
fi

# opt-in: perf-regression gate — the tracked root series, five rounds
# alternating between a test binary built from HEAD (or $BASE) and one
# built from the working tree on this host, each benchmark's two runs
# back to back, failing when the median paired change in ns/op, B/op or
# allocs/op exceeds +15% (`make bench` records the BENCH_*.json files;
# they are not the reference)
if [ "${NDE_BENCH:-0}" = "1" ]; then
    echo "==> scripts/bench_diff.sh"
    sh scripts/bench_diff.sh
fi

echo "OK"
