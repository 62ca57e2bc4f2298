#!/bin/sh
# Full pre-merge check: vet, build everything, and run the test suite with
# the race detector (the live runtime and transports must be race-clean).
set -eu

cd "$(dirname "$0")"

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# The figure golden is skipped under -race (over a minute there, ~7 s
# without), so run it once without the race detector.
echo "== figure golden"
go test -run TestFiguresGolden ./internal/experiments/

# benchmark/ is a Go module of its own (BENCHMARK.json's contract), so
# ./... above never enters it — but it compiles against internal/ APIs.
echo "== benchmark module: go vet + go build"
(cd benchmark && go vet . && go build -o /dev/null .)

# Build and run the queue's and the draw-counter table's benchmarks once,
# so benchmark code cannot rot unbuilt (or unable to finish) between
# `make bench` runs.
echo "== eventq and rng benchmarks, one iteration"
go test -run='^$' -bench='EventQ|EdgeCounters' -benchtime=1x ./internal/eventq/ ./internal/rng/

# The lanes must not make a random-delay schedule slower than the heap
# alone. Tier-1 pins the count behind it (the heap takes all but a few of
# the events); the wall-clock comparison runs here, alone, where no other
# package's tests compete for the cores.
echo "== eventq lanes-vs-heap timing"
go test -count=1 -run='^TestRandomDelaysTiming$' ./internal/eventq/ -args -timing

# The coalescer's share of the live CPU budget: one flush's worth of
# chunk frames for three children, once.
echo "== coalescer flush benchmark, one iteration"
go test -run='^$' -bench='^BenchmarkCoalescerFlush$' -benchtime=1x ./internal/transport/

# The join benchmarks `make bench` archives run on the shared descent
# machine; one iteration keeps them building and finishing.
echo "== core join benchmarks, one iteration"
go test -run='^$' -bench='^BenchmarkJoin' -benchtime=1x ./internal/core/

# Stream once through the live cluster the heap budget is recorded on
# (`make profile-heap-live`), so that benchmark cannot rot either.
echo "== live cluster peak-heap benchmark, one iteration"
go test -run='^$' -bench='^BenchmarkLiveClusterPeakHeap$' -benchtime=1x .

# The live stream `make profile-live` profiles, once.
echo "== live cluster stream benchmark, one iteration"
go test -run='^$' -bench='^BenchmarkLiveClusterStream$' -benchtime=1x .

# The steady-stream session `make profile-steady` profiles, once.
echo "== steady-stream benchmark, one iteration"
go test -run='^$' -bench='^BenchmarkSteadyStream$' -benchtime=1x .

# Optional perf gate: compare benchmarks against the archived baseline.
# Off by default (benchmark noise depends on the machine); enable with
#   BENCH_COMPARE=1 ./check.sh
if [ "${BENCH_COMPARE:-0}" = "1" ]; then
	echo "== make bench-compare"
	make bench-compare
fi

echo "check: OK"
