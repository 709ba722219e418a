#!/bin/sh
# check.sh — the repo's pre-merge gate: vet, formatting, build, and the
# full test suite under the race detector. `make check` runs this.
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

# contract-enforcing static analysis (determinism, panicsite, errwrap,
# obsguard; see DESIGN.md §10). Skip with NDE_SKIP_LINT=1 when in a hurry.
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

echo "==> go test -race ./..."
go test -race ./...

# bench/ is a module of its own, so the root vet and test runs above do not
# build it; it calls the internal importance, ml and facade APIs directly
echo "==> bench: go vet + go test"
(cd bench && go vet ./... && go test ./...)

# short deterministic fuzz pass over the CSV reader: replays the checked-in
# corpus, then a couple of seconds of fresh mutation
echo "==> go test -fuzz FuzzReadCSV (2s)"
go test -run='^FuzzReadCSV$' -fuzz='^FuzzReadCSV$' -fuzztime=2s ./internal/frame/

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

# opt-in: perf-regression gate — fresh benchmark run compared against the
# checked-in BENCH_*.json baselines, failing on >15% ns/op regression
# (refresh the baselines themselves with `make bench`)
if [ "${NDE_BENCH:-0}" = "1" ]; then
    echo "==> scripts/bench_diff.sh"
    sh scripts/bench_diff.sh
fi

echo "OK"
