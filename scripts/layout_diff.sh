#!/bin/sh
# layout_diff.sh — compare the code layout of two nde-bench binaries, as
# `sh bench/run.sh` leaves them in .bench_build/nde-bench. A change that
# only moves code can shift a hot loop across a 64-byte line and read as a
# 5–20% swing on a workload whose code it never touches, so check the
# layout before attributing such a swing. It prints:
#
#   1. the first text symbol, in OLD's address order, whose address
#      modulo 64 differs in NEW — where the two layouts start to differ;
#   2. the hot symbols' addresses and their values modulo 64 in both
#      binaries ("absent" when the symbol was inlined or not linked).
#
# Usage: sh scripts/layout_diff.sh OLD NEW
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 OLD NEW" >&2
    exit 2
fi
old=$1
new=$2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# the hot symbols of the benchmark's workloads and of its reference kernel
hot='main.(*refBuf).kernel
nde/internal/linalg.PairwiseD2Rows
nde/internal/linalg.pairwiseD2RowsAVX2
nde/internal/linalg.d2RowsAVX2.abi0
nde/internal/ml.argsortInto
nde/internal/ml.(*argsortScratch).finishRun
nde/internal/ml.(*deltaGeom).walkInto
nde/internal/importance.knnShapleyKernel
nde/internal/importance.shapleyPoint
nde/internal/importance.shapleyWalkRow
nde/internal/importance.addRows
slices.partitionOrdered[go.shape.float64]
nde/internal/cleaning.(*testVotes).accuracy
nde/internal/serve.(*regDecoder).row
nde/internal/serve.wordFloat
nde/internal/serve.(*regDecoder).scanNumber
nde/internal/serve.eiselLemire'

# hex converts a hexadecimal string (with or without 0x) to a number;
# addresses fit a double exactly
hexfn='function hex(s,  i, n) {
    sub(/^0x/, "", s)
    s = tolower(s)
    n = 0
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}'

# text symbols of a binary as "address name", in address order
syms() {
    go tool nm -sort address "$1" | awk '$2 == "T" || $2 == "t" {
        addr = $1
        sub(/^ *[0-9a-f]+ [Tt] /, "")
        print addr, $0
    }'
}
syms "$old" >"$tmp/old"
syms "$new" >"$tmp/new"

echo "== first symbol whose address mod 64 changes"
awk "$hexfn"'
NR == FNR {
    name = $0
    sub(/^[^ ]+ /, "", name)
    if (!(name in addr)) addr[name] = $1
    next
}
{
    name = $0
    sub(/^[^ ]+ /, "", name)
    if (!(name in addr) || (name in seen)) next
    seen[name] = 1
    o = hex($1) % 64
    n = hex(addr[name]) % 64
    if (o != n) {
        printf "%s: 0x%s (%d) -> 0x%s (%d)\n", name, $1, o, addr[name], n
        found = 1
        exit
    }
}
END { if (!found) print "none: every symbol in both keeps its address mod 64" }
' "$tmp/new" "$tmp/old"

echo
echo "== hot symbols: address (mod 64), old -> new"
echo "$hot" >"$tmp/hot"
awk "$hexfn"'
FILENAME == ARGV[1] { want[++nw] = $0; next }
{
    name = $0
    sub(/^[^ ]+ /, "", name)
    if (FILENAME == ARGV[2] && !(name in o)) o[name] = $1
    if (FILENAME == ARGV[3] && !(name in n)) n[name] = $1
}
END {
    for (i = 1; i <= nw; i++) {
        s = want[i]
        a = (s in o) ? sprintf("0x%s (%d)", o[s], hex(o[s]) % 64) : "absent"
        b = (s in n) ? sprintf("0x%s (%d)", n[s], hex(n[s]) % 64) : "absent"
        flag = ""
        if ((s in o) && (s in n) && hex(o[s]) % 64 != hex(n[s]) % 64) flag = "  MOVED mod 64"
        printf "%-48s %-20s -> %s%s\n", s, a, b, flag
    }
}
' "$tmp/hot" "$tmp/old" "$tmp/new"

