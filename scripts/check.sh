#!/usr/bin/env bash
# Full repository verification: build, vet, tiermergelint (the merge
# protocol's invariant gate), format check, unit/property tests,
# experiment regeneration with pass/fail gates, examples and a quick
# benchmark smoke. CI runs exactly this (see .github/workflows/ci.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

# Pinned versions for the external gates (staticcheck, govulncheck).
# These are REQUIRED: a missing binary fails the check unless the run
# opts out explicitly with TIERMERGE_SKIP_EXTERNAL_GATES=1 (offline or
# vendoring-free environments — CI's lint job runs the pinned tools
# itself, so its check job sets the variable).
STATICCHECK_VERSION="${STATICCHECK_VERSION:-2024.1}"
GOVULNCHECK_VERSION="${GOVULNCHECK_VERSION:-v1.1.3}"
TIERMERGE_SKIP_EXTERNAL_GATES="${TIERMERGE_SKIP_EXTERNAL_GATES:-0}"

# run_logged NAME CMD...: run a command with output captured to a log,
# replaying the log when the command fails so panics in benchreport or
# the examples are never swallowed by a silent redirect.
run_logged() {
    local name="$1"
    shift
    local log
    log=$(mktemp "${TMPDIR:-/tmp}/check-${name//\//_}.XXXXXX")
    if ! "$@" > "$log" 2>&1; then
        echo "FAILED: $name ($*)" >&2
        echo "---- output ----" >&2
        cat "$log" >&2
        rm -f "$log"
        exit 1
    fi
    rm -f "$log"
}

# require_tests PKG PATTERN: fail unless every |-separated alternative of a
# -run PATTERN lists at least one test in PKG, so deleting or renaming a
# test named in a gate fails the gate instead of silently shrinking it.
require_tests() {
    local pkg="$1" alt listed
    local -a alts
    IFS='|' read -r -a alts <<< "$2"
    for alt in "${alts[@]}"; do
        listed=$(go test -list "$alt" "$pkg")
        if ! grep -qE '^(Test|Benchmark|Example|Fuzz)' <<< "$listed"; then
            echo "FAILED: -run alternative '$alt' matches no test in $pkg" >&2
            exit 1
        fi
    done
}

echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v '^$' || true)
if [ -n "$unformatted" ]; then
    echo "unformatted files:" "$unformatted"
    exit 1
fi

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== tiermergelint (merge-protocol invariants) =="
go run ./cmd/tiermergelint ./...

echo "== staticcheck (required, pinned $STATICCHECK_VERSION) =="
if command -v staticcheck > /dev/null 2>&1; then
    have=$(staticcheck -version 2> /dev/null || true)
    case "$have" in
        *"$STATICCHECK_VERSION"*) staticcheck ./... ;;
        *)
            echo "WARNING: staticcheck version mismatch (have: ${have:-unknown}, want $STATICCHECK_VERSION); running anyway"
            staticcheck ./...
            ;;
    esac
elif [ "$TIERMERGE_SKIP_EXTERNAL_GATES" = "1" ]; then
    echo "SKIPPED: staticcheck (TIERMERGE_SKIP_EXTERNAL_GATES=1; pin: $STATICCHECK_VERSION)"
else
    echo "FAILED: staticcheck not installed (pin: $STATICCHECK_VERSION)." >&2
    echo "Install it, or set TIERMERGE_SKIP_EXTERNAL_GATES=1 to skip the external gates." >&2
    exit 1
fi

echo "== govulncheck (required, pinned $GOVULNCHECK_VERSION) =="
if command -v govulncheck > /dev/null 2>&1; then
    govulncheck ./... || {
        echo "FAILED: govulncheck" >&2
        exit 1
    }
elif [ "$TIERMERGE_SKIP_EXTERNAL_GATES" = "1" ]; then
    echo "SKIPPED: govulncheck (TIERMERGE_SKIP_EXTERNAL_GATES=1; pin: $GOVULNCHECK_VERSION)"
else
    echo "FAILED: govulncheck not installed (pin: $GOVULNCHECK_VERSION)." >&2
    echo "Install it, or set TIERMERGE_SKIP_EXTERNAL_GATES=1 to skip the external gates." >&2
    exit 1
fi

echo "== tests =="
go test ./...

echo "== e2ebench (separate module: vet + helper tests) =="
# e2ebench has its own go.mod, so the root ./... patterns skip it.
(cd e2ebench && go vet ./... && go test ./...)

echo "== race (concurrent merge pipeline + observers + crash-recovery soak) =="
go test -race ./internal/replica/... ./internal/rewrite/... ./internal/obs/... ./internal/sim/...

echo "== race (wire transport: chan-vs-TCP conformance, exactly-once, drains) =="
# Explicit gate for the transport seam: the conformance suite must produce
# identical outcomes over the in-process channel transport and real
# loopback TCP — round trips, drop-retry parity, exactly-once under
# duplicated frames, mid-flight server close, oversized-frame rejection,
# and the by-reference window origin (TestConformanceOriginByReference,
# TestConformanceOriginRefWindowAdvance,
# TestConformanceOriginRefServerRestart,
# TestConformanceStrategy1IssuesNoOriginID) — all under the race detector.
go test -race -count=1 ./internal/wire/

echo "== race (incremental re-prepare parity + concurrent admission) =="
# Explicit gate for the retry-amortization invariants: incremental
# re-prepare must match a from-scratch prepare (reports and counters),
# uploads bill once per reconnect, and a disjoint fleet admits
# concurrently without a retry — all under the race detector.
gate='IncrementalRetryMatchesFromScratch|RetryBillsUploadOnce|DisjointFleetAdmitsWithoutRetry'
require_tests ./internal/replica/ "$gate"
go test -race -count=1 -run "$gate" ./internal/replica/

echo "== race (sharded base tier: two-phase cross-shard merges + window barrier) =="
# Explicit gate for the sharding invariants: N=1 parity with the plain
# cluster, serial-order equivalence of concurrent sharded reconnects,
# counter parity with the serial pipeline, cross-shard merges vs the
# single-shard baseline, the checkout/advance window barrier, the
# all-shards-contended deadlock smoke, and the shard-group pipeline's
# regressions: a re-execution writes on the shard owning each item
# (TestShardReexecutionWritesOwningShard), holds the mutex of every shard
# it touches (TestCrossShardReexecutionLocksEveryOwner), and a
# cross-shard serial round emits the same prepare sub-phase events as a
# single-shard one (TestCrossShardSerialTraceParity) — all under the race
# detector. The three are named in the pattern as well, so require_tests
# fails if one is renamed away.
gate='TestShard|TestCrossShard|TestWindowBarrier|TestShardReexecutionWritesOwningShard|TestCrossShardReexecutionLocksEveryOwner|TestCrossShardSerialTraceParity'
require_tests ./internal/replica/ "$gate"
go test -race -count=1 -run "$gate" ./internal/replica/

echo "== experiments (E0..E19) =="
run_logged benchreport go run ./cmd/benchreport

echo "== examples =="
for ex in quickstart banking inventory fleet offline intrusion; do
    echo "-- examples/$ex"
    run_logged "example-$ex" go run "./examples/$ex"
done

echo "== scenario files =="
for f in scenarios/*.txn; do
    echo "-- $f"
    run_logged "scenario-$(basename "$f")" go run ./cmd/txrun -file "$f"
done

echo "== merge trace smoke =="
run_logged trace-smoke go run ./cmd/tiermerge trace -mobiles 2 -rounds 2 -txns 3

echo "== multi-process wire smoke (tiermerge serve + client over loopback TCP) =="
run_logged wire-smoke bash scripts/e2e_wire.sh

echo "== end-to-end benchmark smoke (correctness checks) =="
# One-second traced runs of the reconnect benchmark (BENCHMARK.json). A
# run exits non-zero when any of its checks fails: deposits conserved in
# the master, the master unchanged across a reopen of the durable tier,
# and saved + reprocessed + failed = shipped on every reconnect.
for w in checkout-large long-disconnect; do
    run_logged "e2ebench-$w" bash e2ebench/run.sh --workload "$w" --seconds 1 --trace 1
done

echo "== benchmark smoke =="
run_logged bench-smoke go test -run XXX -bench . -benchtime 1x ./...

echo "ALL CHECKS PASSED"
