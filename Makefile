# Standard entry points; see README.md § Testing.

.PHONY: build test lint check bench bench-all bench-diff stress ops-smoke serve-smoke

build:
	go build ./...

# contract-enforcing static analysis: determinism, panicsite, errwrap,
# obsguard, globalstate, deadcode over the whole module (DESIGN.md §10).
# `-update` regenerates the scripts/lint/ allowlists after review.
lint:
	go run ./cmd/nde-lint

# tier-1: what CI must keep green
test:
	go build ./... && go test ./...

# full gate: vet + gofmt + build + race-detector tests
check:
	sh scripts/check.sh

# race-stress gate: heavy concurrent-facade hammering under -race across a
# GOMAXPROCS sweep (scripts/check.sh runs the quick variant)
stress:
	sh scripts/stress.sh

# live ops plane smoke test: run nde-pipeline with -ops, scrape /healthz,
# /metrics and /trace over HTTP, interrupt, assert a clean exit and ledger
ops-smoke:
	sh scripts/ops_smoke.sh

# nde-serve smoke test: race-built daemon, register/score/what-if over real
# HTTP, singleflight + load-shed assertions from /metrics, SIGTERM drain
serve-smoke:
	sh scripts/serve_smoke.sh

# tracked benchmark series (scripts/bench_series.sh), medians of five runs
# -> BENCH_importance.json + BENCH_whatif.json + BENCH_neighbor.json +
# BENCH_incremental.json, the record of this host's numbers
bench:
	sh scripts/bench.sh

# every benchmark in the repo, untracked
bench-all:
	go test -bench=. -benchmem ./...

# perf-regression gate: the tracked series from a test binary of HEAD (or
# BASE=rev) and one of the working tree, five rounds on this host with
# each benchmark's two runs back to back; fails when the median paired
# change in ns/op, B/op or allocs/op exceeds +15%
# (scripts/check.sh runs this when NDE_BENCH=1)
bench-diff:
	sh scripts/bench_diff.sh
