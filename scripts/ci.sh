#!/bin/sh
# CI gate, in the order the stages run:
#   gofmt, doc symbols (every Go name the documents quote exists), go vet,
#   go build, go test -race ./..., perfbench's own vet + tests,
#   fault-injection soak, fleet soak (its traces read back from journal
#   files), hot-path benchmarks (`make bench`: the list lives in the
#   Makefile), drift soak, telemetry overhead guard,
#   zero-alloc forwarding gate (with the stored-row footprint and the
#   full-swap and deploy allocation gates), million-entry sublinearity guard.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
# Read-only, and by directory rather than by module: the walk covers the
# root module and perfbench/ alike.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting (run gofmt -w):"
    printf '%s\n' "$unformatted"
    exit 1
fi

echo "==> doc symbols"
# Every backticked Go-looking name in the documents that describe the
# system — pkg.Name, Type.Method, TestXxx, BenchmarkXxx, FuzzXxx, CI_* —
# must word-match a Go source, a test definition or this script: a document
# that names a symbol the tree no longer has fails here. Excluded by name:
# CHANGES.md and ROADMAP.md are history and name what was removed;
# perfbench/README.md has three known-stale passages that only a benchmark
# PR may fix (ROADMAP item 1).
docs="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
stale=$(grep -oh '`[^`]*`' $docs |
    grep -oE '(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9]*|CI_[A-Z_]+|[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+' | sort -u |
    while read -r tok; do
        case $tok in
        Test* | Benchmark* | Fuzz*) grep -rqw --include='*_test.go' "func $tok" . ;;
        CI_*) grep -qw "$tok" scripts/ci.sh Makefile ;;
        *_* | test.* | *.go | *.sh | *.md | *.json | *.jsonl | *.txt | *.pcap) ;; # metrics, go test flags, files
        *) grep -rqw --include='*.go' "${tok##*.}" . ;;
        esac || echo "$tok"
    done)
if [ -n "$stale" ]; then
    echo "documents name symbols the tree does not define:"
    printf '%s\n' "$stale"
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test -race"
# Not hung, slow: on the 2-hyperthread reference host the root package
# alone takes 8.5 min under the race detector, and go test runs it beside
# internal/experiments (9.2–10+ min), so the default 10 min per-package
# timeout is inside the spread.
go test -race -timeout 30m ./...

echo "==> benchmark module (perfbench: vet + its own tests)"
# perfbench is its own module (BENCHMARK.json's harness), so ./... above
# does not build it: a contract export removed from the root module must
# fail here, not in the driver. Same offline environment as
# perfbench/run.sh.
(
    cd perfbench
    export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
    go vet ./...
    go test ./...
)

echo "==> fault-injection soak (seeded, race-enabled)"
# The control plane must fight through a reproducible storm of connection
# resets, torn frames, and injected latency (internal/faultnet, fixed
# seed) and still converge the switch to the exact desired rule set with
# no goroutine leaks. Repeated runs catch interleavings a single pass
# misses; the seed keeps every run's fault schedule identical.
go test -race -count "${CI_SOAK_COUNT:-3}" \
    -run 'TestFaultInjectionSoak|TestReconnectConvergesAfterSwitchRestart|TestCloseUnblocksPendingCalls|TestDeterministicSchedule' \
    ./internal/controller/ ./internal/p4rt/ ./internal/faultnet/

echo "==> fleet soak (sharded fabric, seeded lossy links, race-enabled)"
# The fabric gate: five gateways behind seeded lossy netsim links, three
# killed and restarted mid-run — the sharding controller must reconverge
# every switch to a byte-identical per-shard rule set (PR-5 reconciler),
# keep the digest fan-in invariant Offered == Drained + Dropped + Depth
# per switch and fleet-wide, and leak no goroutines. The determinism
# tests pin the emulation schedule itself: same seed, same delays.
# TestFleetTraceExportWellFormed additionally asserts every distributed
# trace is well-formed — no orphan spans, monotonic per-process
# timestamps, per-stage durations summing to each trace's end-to-end
# duration — both in memory and after each process's spans round-trip
# through its own journal file, as the daemons export them on exit. The
# delta soak pins the incremental
# reprogramming path: a delta-only deploy across a sharded fleet must
# converge every switch byte-identical to a full-swap reference fleet
# (reactive entries surviving in place), a peer of another protocol
# version must be refused at dial on either side while the supervisor
# backs off, and compressed+delta deploys must stay verdict-equivalent to
# the uncompressed rule set.
go test -race -count "${CI_FLEET_COUNT:-2}" \
    -run 'TestFleetShardedConvergenceUnderLossyNetsim|TestDigestFanInBoundedBackpressure|TestFleetTraceExportWellFormed|TestLinkStatsAttribution|TestSameSeedIdenticalDelaySequence|TestJitterDeterministicSequence|TestLatencyInjectionDeterministic|TestDeltaDeployConvergesIdenticalToFullSwap|TestHelloVersionMismatchIsTyped|TestCompressedDeltaDeployEquivalence' \
    ./internal/controller/ ./internal/netsim/ ./internal/faultnet/

echo "==> hot-path benchmarks"
# The list is the Makefile's bench target (one copy); CI_BENCHTIME reaches
# it through the environment.
make -s bench 2>&1 | grep -v '^ok\|no test files'

echo "==> drift soak (concurrent sketches, race-enabled, seeded determinism)"
# The drift monitor must survive concurrent ingest + scrape + baseline
# re-arm under the race detector with never-torn, monotonic snapshots,
# and two seeded runs must produce byte-identical fleet profiles.
go test -race -count "${CI_DRIFT_COUNT:-2}" \
    -run 'TestDriftSoakConcurrent|TestDriftSeededRunsByteIdentical' \
    ./internal/drift/

echo "==> telemetry overhead guard"
# The instrumented lookup (telemetry registered: sampled latency
# histogram, per-entry byte counters, scrape callbacks) is a second code
# path and must stay within CI_GUARD_PCT percent of the uninstrumented
# hot path. Best-of-N runs so scheduler noise doesn't flake the gate.
# Disarmed explain sampling, tracing and drift monitoring run the same
# code as the plain lookup, so they are held to counts, not timings:
# TestDisarmedInstrumentsAreInert in the zero-alloc gate below.
guard_out=$(go test -run '^$' \
    -bench 'BenchmarkDataPlaneLookup$|BenchmarkDataPlaneLookupInstrumented$' \
    -benchtime "${CI_GUARD_BENCHTIME:-0.5s}" -count "${CI_GUARD_COUNT:-3}" . 2>&1)
printf '%s\n' "$guard_out"
printf '%s\n' "$guard_out" | awk -v pct="${CI_GUARD_PCT:-10}" '
    /^BenchmarkDataPlaneLookupInstrumented/ { if (inst == 0 || $3 < inst) inst = $3; next }
    /^BenchmarkDataPlaneLookup/             { if (base == 0 || $3 < base) base = $3 }
    END {
        if (base == 0 || inst == 0) { print "guard: benchmarks missing from output"; exit 1 }
        ratio = inst / base
        printf "guard: uninstrumented %.1f ns/op, instrumented %.1f ns/op (%.1f%%)\n", base, inst, (ratio - 1) * 100
        if (ratio > 1 + pct / 100) { printf "guard: FAIL, instrumented lookup regresses more than %d%%\n", pct; exit 1 }
    }'

echo "==> zero-alloc forwarding gate"
# The steady-state batch loop (pooled arena and caches warm), the
# single-packet Process path (also with explain sampling, tracing and
# drift monitoring armed once and disarmed), and the in-place frame parser
# must not allocate at all, the delta diff must allocate the same
# whether it pairs 16 rows or 8 192 (its table, not a key per row), a
# reactive install into an 8 192-row range table must allocate the 8 B/row
# copy of the sorted entry list and no hash, a delta apply on one the two
# pointer lists and the one copy of the point hash its deletes are made in
# (no row array, no second hash), and a full swap must go from
# frame bytes to applied table in at most 36 allocations whatever the rows
# (the decoder reads the packed rows into slabs sized exactly by the head's
# count — a table programmed from a frame holds, within a page, what one
# given rows built by hand holds — keys in one slab, the frame's buffer
# recycled; small frames never see the pool), and from rule set to two
# programmed switches in at most 140 allocations and 5.6 MB at 8 192 rows.
# What a table keeps is gated with them: a stored row of at
# most 80 bytes, at most 160 live bytes a row in a programmed 8 192-row
# detector table and at most 176 retained per reactive install, read as
# heap_mb is. testing.AllocsPerRun is deterministic and the install, deploy
# and footprint gates take the cheapest of several runs, so this gate never
# flakes.
go test -count 1 \
    -run 'TestSteadyStateForwardingZeroAlloc|TestProcessSinglePacketZeroAlloc|TestDisarmedInstrumentsAreInert|TestAcceptFrameAllocationFree|TestComputeDeltaAllocsIndependentOfRows|TestRangeInsertAllocsIndependentOfHash|TestRangeDeltaAllocsIndependentOfRows|TestFullSwapAllocsPerRow|TestDecodedSlabFitsItsRows|TestSmallFramesNeverSeeThePool|TestFullDeployAllocs|TestIdlePumpTickAllocatesNothing|TestStoredRowFootprint' \
    ./internal/switchsim/ ./internal/packet/ ./internal/p4/ ./internal/p4rt/ ./internal/controller/

echo "==> million-entry sublinearity guard"
# Ternary lookup must stay sublinear in table size: with a saturating
# mask-pattern pool the partitioned hash store's cost is bounded by the
# partition count, not the entry count, so the 1M-entry lookup must stay
# within CI_GUARD_SUBLINEAR x the 1k-entry lookup. A linear-scan
# regression shows up as a ~1000x ratio, so the 4x bar has three orders
# of magnitude of slack against the failure mode while still catching a
# broken index. Best-of-N so scheduler noise doesn't flake the gate.
scale_out=$(go test -run '^$' \
    -bench 'BenchmarkTernaryLookup/entries=1000$|BenchmarkTernaryLookup/entries=1000000$' \
    -benchtime "${CI_GUARD_BENCHTIME:-0.5s}" -count "${CI_GUARD_COUNT:-3}" ./internal/p4/ 2>&1)
printf '%s\n' "$scale_out"
printf '%s\n' "$scale_out" | awk -v max="${CI_GUARD_SUBLINEAR:-4}" '
    /^BenchmarkTernaryLookup\/entries=1000000/ { if (big == 0 || $3 < big) big = $3; next }
    /^BenchmarkTernaryLookup\/entries=1000/    { if (small == 0 || $3 < small) small = $3 }
    END {
        if (small == 0 || big == 0) { print "guard: benchmarks missing from output"; exit 1 }
        ratio = big / small
        printf "guard: 1k lookup %.0f ns/op, 1M lookup %.0f ns/op (%.2fx)\n", small, big, ratio
        if (ratio > max) { printf "guard: FAIL, 1M-entry lookup %.2fx over 1k exceeds %sx\n", ratio, max; exit 1 }
    }'

echo "==> ci green"
