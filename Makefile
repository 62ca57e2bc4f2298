GO ?= go

.PHONY: check test build vet fuzz bench bench-compare profile-cell bench-experiments bench-scale bench-scale-smoke bench-scale-profile profile-smoke

# check is the pre-merge gate: vet + build + race-enabled tests.
check:
	./check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short fuzz pass over the wire codec.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/wire/

# BENCH_PKGS are the packages whose Go benchmarks BENCH_wire.json archives.
BENCH_PKGS = ./internal/wire/ ./internal/eventq/ ./internal/rng/ ./internal/core/

# bench runs the wire codec, event queue, draw-counter and core join
# benchmarks and archives their JSON summary (BENCH_wire.json), which
# tracks the perf trajectory PR to PR; every run also appends one line to
# BENCH_history.jsonl. The live data plane is measured by
# `bash benchmark/run.sh` (the live-clean-stream and live-lossy-stream
# workloads), not here.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem $(BENCH_PKGS) | tee bench.out
	$(GO) run ./cmd/benchjson -history BENCH_history.jsonl < bench.out > BENCH_wire.json
	@rm -f bench.out

# bench-compare re-runs the benchmarks and fails if any regressed more
# than 10% in ns/op — or at all in allocs/op — against the archived
# BENCH_wire.json baseline (matched by name without the GOMAXPROCS suffix,
# so the baseline's core count need not be this machine's).
bench-compare:
	$(GO) test -run='^$$' -bench=. -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -compare BENCH_wire.json

# bench-experiments times a fixed experiment selection serial vs parallel
# and archives the wall-clock numbers (BENCH_experiments.json).
bench-experiments:
	$(GO) run ./cmd/experiments -group ch5-refine -reps 2 -timescale 0.06 -ratescale 0.3 \
		-benchout BENCH_experiments.json > /dev/null
	@echo "wrote BENCH_experiments.json"

# bench-scale sweeps the sharded engine's peers × shards grid up to the
# 100k-peer scenario, plus a single 500k-peer cell at the largest shard
# count, and archives the scaling curve (BENCH_scale.json: wall clock
# split join/steady, peak heap, bytes/peer, events/s per cell), holding
# the 100k+ cells to the 6 KB/peer budget (-maxbpp). Long — an hour or
# more; the committed artifact comes from this target on a quiet machine.
bench-scale:
	$(GO) run ./cmd/benchscale -peers 1000,10000,100000 -shards 0,1,2,4 \
		-xpeers 500000 -duration 300 -join 150 -v -maxbpp 6000 \
		-out BENCH_scale.json -history BENCH_history.jsonl
	@echo "wrote BENCH_scale.json"

# bench-scale-profile records the committed flight-recorder artifact: the
# 10k-peer sharded cell with profiling on. BENCH_simprof.jsonl is the
# recording vdmprof renders in the README quick-start (per-shard
# barrier-wait share, horizon-advance distribution, event-storm peers).
bench-scale-profile:
	$(GO) run ./cmd/benchscale -peers 10000 -shards 4 -duration 300 -join 150 \
		-profileout BENCH_simprof.jsonl -out /dev/null
	$(GO) run ./cmd/vdmprof BENCH_simprof.jsonl
	@echo "wrote BENCH_simprof.jsonl"

# profile-cell prints where the benchmark's 20 000-peer serial cell spends
# its CPU: the `pprof -top` ROADMAP asks for before an engine layer is
# touched. The cell runs three times under one profile, because a single
# 4 s run is ~400 samples and its shares wander by a point or two.
# BENCH_pprof_scale_cell.txt holds this target's output for the commit
# that last changed the engine and for its parent.
profile-cell:
	$(GO) run ./cmd/benchscale -peers 20000,20000,20000 -shards 0 -duration 300 -join 150 -seed 7 \
		-cpuprofile scale_cell.pprof -out /dev/null
	$(GO) tool pprof -top -nodecount=40 scale_cell.pprof
	@rm -f scale_cell.pprof

# bench-scale-smoke is the CI variant: small populations swept over
# serial / S=1 / S=4 in seconds, written to their own file so the
# committed full-grid BENCH_scale.json is never overwritten by a smoke
# run. It enforces the determinism cross-check (sharded output == serial
# output), fails if the pure epoch-machinery overhead at S=1 exceeds
# 1.5× serial wall clock, holds the smoke cells to a generous absolute
# bytes-per-peer ceiling (small cells are fixed-cost-dominated, so the
# ceiling only catches order-of-magnitude leaks), and re-asserts the
# committed artifact's 100k/500k cells against the 6 KB/peer budget so a
# regressed committed report fails CI even without a long re-run.
bench-scale-smoke:
	$(GO) run ./cmd/benchscale -peers 500,1000 -shards 0,1,4 -duration 120 -join 60 \
		-gate 1.5 -maxbpp 120000 -out BENCH_scale_smoke.json
	$(GO) run ./cmd/benchscale -check BENCH_scale.json -maxbpp 6000
	@echo "wrote BENCH_scale_smoke.json"

# profile-smoke exercises the whole flight-recorder path in seconds: a
# short profiled sharded session, then vdmprof rendering the summary
# (which fails if the recording is missing records or unparseable). CI
# runs this and uploads profile_smoke.jsonl next to BENCH_scale.json.
profile-smoke:
	$(GO) run ./cmd/vdmsim -nodes 300 -routers 300 -duration 600 -join 200 \
		-shards 4 -profileout profile_smoke.jsonl > /dev/null
	$(GO) run ./cmd/vdmprof profile_smoke.jsonl
	@echo "wrote profile_smoke.jsonl"
