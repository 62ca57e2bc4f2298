GO ?= go

.PHONY: check test build vet fuzz goldens knobs loc bench bench-compare profile-cell profile-steady profile-live profile-heap profile-heap-live bench-scale bench-scale-profile profile-smoke

# check is the pre-merge gate: vet + build + race-enabled tests.
check:
	./check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short fuzz pass over the decoders: arbitrary bytes through the wire
# frame decoder and through the datagram splitter, generated messages of
# every type through a round trip, a lossy, reordering link between the
# FEC encoder and decoder, Add sequences through the data plane's sliding
# window against a map-based reference, arbitrary text through the
# scenario-script reader, and arbitrary bytes through the flight-recorder
# reader. FUZZTIME is per target. The recorder and window targets would
# spend their time minimizing (up to 60 s per new input by default;
# whole recordings are the recorder's seeds, and new window paths turn up
# often); 100 runs per minimization keep them fuzzing.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeDatagram$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzFECDecoder$$' -fuzztime=$(FUZZTIME) ./internal/flow/
	$(GO) test -run='^$$' -fuzz='^FuzzWindow$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/flow/
	$(GO) test -run='^$$' -fuzz='^FuzzScenarioRead$$' -fuzztime=$(FUZZTIME) ./internal/scenario/
	$(GO) test -run='^$$' -fuzz='^FuzzSimprofRead$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/obs/simprof/

# goldens re-records every pinned output. Each golden test compares its
# output through internal/golden.Check, which rewrites the file instead
# when VDM_UPDATE_GOLDENS=1; every golden test's name contains "Golden".
# Then results_full.txt, the figures at the scale EXPERIMENTS.md reports,
# is regenerated through a temp file (~2.5 min on 2 cores). On unchanged
# code it leaves the tree clean; `git diff` shows what a change moved.
goldens:
	VDM_UPDATE_GOLDENS=1 $(GO) test -count=1 -run Golden ./...
	$(GO) run ./cmd/experiments -all -reps 5 -timescale 0.5 -seed 1 > results_full.txt.tmp
	@mv results_full.txt.tmp results_full.txt

# knobs counts the repo's settable values: the fields of every *Config and
# Options struct under internal/ and in vdm.go (a line `A, B int` is two),
# and the flags every command under cmd/ declares. One line per struct or
# command, then the total.
knobs:
	@awk 'function flagline(   dir) { dir = cmd; sub(/\/main\.go$$/, "", dir); \
		printf "%-44s %3d flags\n", dir, nflags; total += nflags; nflags = 0; cmd = "" } \
	FNR == 1 && cmd != "" { flagline() } \
	FILENAME ~ /^cmd\// { cmd = FILENAME; \
		if ($$0 ~ /(fs|flag)\.(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var|BoolVar|DurationVar|Float64Var|IntVar|Int64Var|StringVar|UintVar|Uint64Var)\(/) nflags++; \
		next } \
	/^type [A-Za-z]*(Config|Options) struct \{/ { name = FILENAME ":" $$2; n = 0; inside = 1; next } \
	inside && /^\}/ { printf "%-44s %3d fields\n", name, n; total += n; inside = 0; next } \
	inside && match($$0, /^\t[A-Za-z_][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)*[ \t]/) { \
		names = substr($$0, 1, RLENGTH); n += gsub(/,/, "", names) + 1 } \
	END { if (cmd != "") flagline(); printf "%-44s %3d\n", "total", total }' \
		$$(find internal -name '*.go' ! -name '*_test.go' | sort) vdm.go cmd/*/main.go

# loc prints the net non-test Go line delta under internal/, cmd/ and
# vdm.go: the working tree (untracked files included) against BASE, by
# git diff --numstat, as +added −removed = net. `make loc BASE=rev`
# measures a change against its parent.
BASE ?= HEAD
loc:
	@{ git diff --numstat $(BASE) -- internal cmd vdm.go; \
	  git ls-files --others --exclude-standard -- internal cmd vdm.go | xargs -r wc -l | \
	    awk '$$2 != "total" { print $$1 "\t0\t" $$2 }'; } | \
	awk '$$3 ~ /\.go$$/ && $$3 !~ /_test\.go$$/ { a += $$1; r += $$2 } \
	END { n = a - r; printf "+%d −%d = %s%d\n", a, r, n < 0 ? "−" : "+", n < 0 ? -n : n }'

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

# SCALE_CELL is the scale cell's session shape, the benchmark's
# sim-scale-cell at any population: 300 s simulated, a 150 s join storm,
# 0.2 chunks/s and no churn round before the end. -progress 150 prints the
# wall clock at the join phase's end and at the session's end.
SCALE_CELL = -duration 300 -join 150 -rate 0.2 -progress 150

# SCALE_STATS reads the -progress lines of a population's runs and prints
# its row of BENCH_scale.txt: join-storm wall, total wall and events/s,
# each as median [min, max] over the runs.
define SCALE_STATS
function val(s) { sub(/^[^=]*=/, "", s); return s + 0 }
function stat(a, k, f,   i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	return sprintf(f " [" f ", " f "]", a[int((k+1)/2)], a[1], a[k])
}
$$1 ~ /^t=150s/ { join[++k] = val($$NF) }
$$1 ~ /^t=300s/ { wall[k] = val($$NF); evps[k] = val($$2) / wall[k] }
END { printf "%-7d %4d  %-22s %-22s %-27s", n, k, stat(join, k, "%.2f"), stat(wall, k, "%.2f"), stat(evps, k, "%.0f") }
endef
export SCALE_STATS

# bench-scale measures the scale cell on the serial engine at 10k and
# 100k peers (three runs each) and 500k peers (one run), at GOGC=50, and
# writes BENCH_scale.txt. Walls and events/s come from unprofiled runs,
# because the flight recorder adds about 9 % to wall; peak heap and
# bytes/peer come from one more run per population with -profileout,
# read by vdmprof. Long: the 500k cell alone is minutes per run and
# needs several GB of memory.
bench-scale:
	@{ echo "# BENCH_scale.txt: make bench-scale at $$(git describe --always --dirty), $$(nproc) cores, $$($(GO) env GOVERSION), $$(date -u +%Y-%m-%d)"; \
	  echo "# cell: GOGC=50 vdmsim -nodes N $(SCALE_CELL) (serial engine)"; \
	  echo "# join_wall_s (wall at t=150), wall_s, events_per_s: median [min, max] over unprofiled runs"; \
	  echo "# heap: vdmprof's peak sampled heap of one more run with -profileout"; \
	  printf '%-7s %4s  %-22s %-22s %-27s %s\n' peers runs join_wall_s wall_s events_per_s heap; \
	  for cell in 10000:3 100000:3 500000:1; do \
	    n=$${cell%:*}; \
	    progress=$$(for i in $$(seq $${cell#*:}); do \
	      GOGC=50 $(GO) run ./cmd/vdmsim -nodes $$n $(SCALE_CELL) 2>&1 >/dev/null || exit 1; \
	    done) || exit 1; \
	    stats=$$(echo "$$progress" | awk -v n=$$n "$$SCALE_STATS"); \
	    GOGC=50 $(GO) run ./cmd/vdmsim -nodes $$n $(SCALE_CELL) -profileout sim_profile.jsonl >/dev/null 2>&1 || exit 1; \
	    heap=$$($(GO) run ./cmd/vdmprof sim_profile.jsonl | sed -n 's/^  heap *//p') || exit 1; \
	    echo "$$stats $$heap"; \
	  done; } > BENCH_scale.txt.tmp
	@rm -f sim_profile.jsonl
	@mv BENCH_scale.txt.tmp BENCH_scale.txt
	@cat BENCH_scale.txt

# bench-scale-profile records the committed flight-recorder artifact: the
# 10k-peer scale cell on 4 shards with profiling on. BENCH_simprof.jsonl
# is the recording vdmprof renders in the README quick-start (per-shard
# barrier-wait share, horizon-advance distribution, event-storm peers).
bench-scale-profile:
	GOGC=50 $(GO) run ./cmd/vdmsim -nodes 10000 -shards 4 $(SCALE_CELL) \
		-profileout BENCH_simprof.jsonl > /dev/null
	$(GO) run ./cmd/vdmprof BENCH_simprof.jsonl
	@echo "wrote BENCH_simprof.jsonl"

# CPU_PROFILE writes $(2), the `pprof -top` of root benchmark $(1) run
# several times under one profile (-benchtime 3x, after the testing
# package's first single run) at the benchmark's GOGC=50: a single run is
# a few hundred samples, and its shares wander by a point or two.
define CPU_PROFILE
	@{ echo "# $(2): make $@ at $$(git describe --always --dirty), $$(nproc) cores, $$($(GO) env GOVERSION); regenerate with the target, never hand-edit"; \
	  GOGC=50 $(GO) test -run '^$$' -bench '^$(1)$$' -benchtime 3x \
	    -cpuprofile $(1).pprof -o $(1).test . | grep '^Benchmark' || exit 1; \
	  $(GO) tool pprof -top -nodecount=40 $(1).test $(1).pprof 2>/dev/null || exit 1; \
	} > $(2).tmp
	@rm -f $(1).pprof $(1).test
	@mv $(2).tmp $(2)
	@cat $(2)
endef

# profile-cell writes BENCH_pprof_scale_cell.txt: where the benchmark's
# 20 000-peer serial cell (BenchmarkScaleCell) spends its CPU, the
# `pprof -top` ROADMAP asks for before an engine layer is touched. A
# change to the engine records its parent's and its own.
profile-cell:
	$(call CPU_PROFILE,BenchmarkScaleCell,BENCH_pprof_scale_cell.txt)

# profile-steady writes BENCH_pprof_steady_stream.txt: where the
# benchmark's sim-steady-stream session (BenchmarkSteadyStream, seed 1)
# spends its CPU — the chunk delivery path's budget. A change to that
# path records its parent's and its own.
profile-steady:
	$(call CPU_PROFILE,BenchmarkSteadyStream,BENCH_pprof_steady_stream.txt)

# profile-live writes BENCH_pprof_live_stream.txt: where the live plane
# spends its CPU over BenchmarkLiveClusterStream, the 13-peer loopback
# stream in the benchmark's live-clean-stream shape (2 000 chunks/s of
# 256 bytes for 4 s) — the budget of wire encode, coalescer, syscalls,
# mailbox and flow. A change to the live data path records its parent's
# and its own.
profile-live:
	$(call CPU_PROFILE,BenchmarkLiveClusterStream,BENCH_pprof_live_stream.txt)

# profile-heap writes BENCH_pprof_heap_scale_cell.txt, the scale cell's
# memory budget: BenchmarkScaleCellPeakHeap's peak live heap (forced
# collections every 10 simulated s) and the `pprof -top` of the in-use
# heap profile taken at that peak. A change that claims a heap gain
# records its parent's and its own.
profile-heap:
	@{ echo "# BENCH_pprof_heap_scale_cell.txt: make profile-heap at $$(git describe --always --dirty), $$($(GO) env GOVERSION)"; \
	  $(GO) test -run '^$$' -bench '^BenchmarkScaleCellPeakHeap$$' -benchtime 1x . \
	    -args -peakheapprofile=scale_cell_heap.pprof | grep '^Benchmark' || exit 1; \
	  $(GO) tool pprof -top -nodecount=25 -sample_index=inuse_space scale_cell_heap.pprof 2>/dev/null || exit 1; \
	} > BENCH_pprof_heap_scale_cell.txt.tmp
	@rm -f scale_cell_heap.pprof
	@mv BENCH_pprof_heap_scale_cell.txt.tmp BENCH_pprof_heap_scale_cell.txt
	@cat BENCH_pprof_heap_scale_cell.txt

# profile-heap-live writes BENCH_pprof_heap_live_stream.txt, the live
# plane's memory budget: BenchmarkLiveClusterPeakHeap's peak live heap
# over a 4 s stream through a 13-peer loopback cluster (the benchmark's
# live-clean-stream shape) and the `pprof -top` of the in-use heap at the
# end of the stream. A change that claims a live heap gain records its
# parent's and its own.
profile-heap-live:
	@{ echo "# BENCH_pprof_heap_live_stream.txt: make profile-heap-live at $$(git describe --always --dirty), $$($(GO) env GOVERSION)"; \
	  GOGC=50 $(GO) test -run '^$$' -bench '^BenchmarkLiveClusterPeakHeap$$' -benchtime 1x . \
	    -args -peakheapprofile=live_stream_heap.pprof | grep '^Benchmark' || exit 1; \
	  $(GO) tool pprof -top -nodecount=25 -sample_index=inuse_space live_stream_heap.pprof 2>/dev/null || exit 1; \
	} > BENCH_pprof_heap_live_stream.txt.tmp
	@rm -f live_stream_heap.pprof
	@mv BENCH_pprof_heap_live_stream.txt.tmp BENCH_pprof_heap_live_stream.txt
	@cat BENCH_pprof_heap_live_stream.txt

# profile-smoke exercises the whole flight-recorder path in seconds: a
# short profiled sharded session, then vdmprof rendering the summary
# (which fails if the recording is missing records or unparseable). CI
# runs this and uploads profile_smoke.jsonl.
profile-smoke:
	$(GO) run ./cmd/vdmsim -nodes 300 -routers 300 -duration 600 -join 200 \
		-shards 4 -profileout profile_smoke.jsonl > /dev/null
	$(GO) run ./cmd/vdmprof profile_smoke.jsonl
	@echo "wrote profile_smoke.jsonl"
