// Command benchscale is the simulation-scale harness: it sweeps a
// peers × shards grid of chapter-3-style sessions through sim.Run and
// records wall-clock (split into join-storm and steady-state shares),
// peak heap, bytes-per-peer, and event throughput per cell — the
// scaling curve of the sharded discrete-event engine. Cells with
// shards=0 run the serial engine, so the grid carries its own baseline
// and the report includes the S=1 sharding overhead ratio a PR gate can
// key on (-gate). Serial and sharded cells at the same population are
// also cross-checked for identical output (the engines' determinism
// contract); -xpeers adds outsized single cells (e.g. 500k peers) at
// the largest shard count only; and -chapter appends a chapter-3
// experiment re-run at 100× the paper's population (200 → 20,000
// peers). The sweep pins GOGC (-gogc, default 50) so peak-heap numbers
// are reproducible, and -maxbpp holds bytes_per_peer to a memory budget:
// on the report just produced, or with -check FILE on a committed one
// without running a sweep.
//
//	benchscale -peers 1000,10000,100000 -shards 0,1,4 -xpeers 500000 -out BENCH_scale.json
//	benchscale -peers 500,1000 -shards 0,1,4 -duration 120 -gate 1.5  # CI smoke
//	benchscale -check BENCH_scale.json -maxbpp 6000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"vdm/internal/benchio"
	"vdm/internal/obs/simprof"
	"vdm/internal/sim"
)

// cell is one measured grid point.
type cell struct {
	Peers   int     `json:"peers"`
	Shards  int     `json:"shards"` // 0 = serial engine
	WallSec float64 `json:"wall_sec"`
	// JoinWallSec/SteadyWallSec split the wall clock at the instant the
	// simulated clock crosses the join phase: the join storm is the
	// allocation- and event-densest part of a session, so the split
	// shows where scaling work actually lands.
	JoinWallSec   float64 `json:"join_wall_sec"`
	SteadyWallSec float64 `json:"steady_wall_sec"`
	Events        uint64  `json:"events"`
	EventsPerSec  float64 `json:"events_per_sec"`
	PeakHeapMB    float64 `json:"peak_heap_mb"`
	// BytesPerPeer is the sampled peak heap divided by the population —
	// the per-peer memory cost the scale roadmap budgets against.
	BytesPerPeer   float64 `json:"bytes_per_peer"`
	FinalAlive     int     `json:"final_alive"`
	FinalReachable int     `json:"final_reachable"`
	Loss           float64 `json:"loss"`
	Stress         float64 `json:"stress"`
}

// chapterRun is the 100×-paper-scale chapter-3 re-run.
type chapterRun struct {
	Name         string  `json:"name"`
	Peers        int     `json:"peers"`
	Shards       int     `json:"shards"`
	DurationS    float64 `json:"duration_s"`
	WallSec      float64 `json:"wall_sec"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	PeakHeapMB   float64 `json:"peak_heap_mb"`
	Stress       float64 `json:"stress"`
	Stretch      float64 `json:"stretch"`
	Hopcount     float64 `json:"hopcount"`
	Loss         float64 `json:"loss"`
	Overhead     float64 `json:"overhead"`
	FinalAlive   int     `json:"final_alive"`
	Reachable    int     `json:"final_reachable"`
}

type report struct {
	Kind        string  `json:"kind"`
	GitSHA      string  `json:"git_sha"`
	GeneratedAt string  `json:"generated_at"`
	Goos        string  `json:"goos"`
	Goarch      string  `json:"goarch"`
	Cores       int     `json:"cores"`
	DurationS   float64 `json:"duration_s"`
	JoinPhaseS  float64 `json:"join_phase_s"`
	DataRate    float64 `json:"data_rate"`
	ChurnPct    float64 `json:"churn_pct"`
	// GOGC records the garbage-collector target the sweep ran under
	// (see -gogc): peak-heap numbers are only comparable at equal GOGC.
	GOGC int `json:"gogc"`

	Cells []cell `json:"cells"`
	// IdenticalOutput is true when every sharded cell reproduced its
	// serial sibling's metrics exactly (only populations that ran both).
	IdenticalOutput bool `json:"identical_output"`
	// Shard overhead at S=1: wall(S=1) / wall(serial) at the largest
	// population that ran both engines (in small cells fixed costs hide
	// it). This is the pure cost of the epoch machinery with zero
	// parallelism to pay for it.
	S1OverheadRatio float64 `json:"s1_overhead_ratio,omitempty"`
	// ProcessPeakRSSMB is the process high-water mark (VmHWM) — an
	// upper bound across all cells, unlike the per-cell heap peaks.
	ProcessPeakRSSMB float64 `json:"process_peak_rss_mb,omitempty"`
	// ProfileOut is where the largest cell's flight-recorder stream went
	// (-profileout; empty when profiling was off).
	ProfileOut string `json:"profile_out,omitempty"`

	Chapter *chapterRun `json:"chapter,omitempty"`
}

func main() {
	var (
		peersList  = flag.String("peers", "1000,10000,100000", "comma-separated overlay populations")
		xpeersList = flag.String("xpeers", "", "extra populations run only at the largest shard count (big single cells without the full grid cost)")
		shardsList = flag.String("shards", "0,1,2,4", "comma-separated shard counts (0 = serial engine)")
		duration   = flag.Float64("duration", 300, "simulated session length (s)")
		joinS      = flag.Float64("join", 150, "join phase length (s)")
		rate       = flag.Float64("rate", 0.2, "stream rate (chunks/s)")
		churn      = flag.Float64("churn", 5, "churn percent per interval")
		routers    = flag.Int("routers", 784, "minimum router count")
		seed       = flag.Int64("seed", 1, "seed")
		chapter    = flag.Bool("chapter", false, "append the 100×-scale chapter-3 re-run (20k peers)")
		gate       = flag.Float64("gate", 0, "fail if the S=1 overhead ratio exceeds this (0 = report only)")
		out        = flag.String("out", "BENCH_scale.json", "output JSON path")
		history    = flag.String("history", "", "append a summary line to this JSONL history file")
		verbose    = flag.Bool("v", false, "progress to stderr during long cells")
		profOut    = flag.String("profileout", "", "record the largest grid cell's flight-recorder JSONL here")
		profS      = flag.Float64("profile", 0, "flight-recorder flush interval in simulated seconds (0 = default 10; needs -profileout)")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep here")
		gogc       = flag.Int("gogc", 50, "GC target percent for the sweep (0 = leave the runtime default); the memory-lean setting the scale roadmap budgets against")
		maxBPP     = flag.Float64("maxbpp", 0, "fail if a cell at or above 100k peers (or the sweep's largest population, if smaller) exceeds this many bytes per peer (0 = no cap)")
		check      = flag.String("check", "", "run no sweep: re-assert identical_output and -maxbpp on this existing report")
	)
	flag.Parse()

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fatal(err)
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			fatal(fmt.Errorf("%s: %w", *check, err))
		}
		if err := gateReport(&rep, *maxBPP); err != nil {
			fatal(fmt.Errorf("%s: %w", *check, err))
		}
		return
	}

	// Peak heap scales with GOGC (a GOGC=100 peak is roughly 2× the live
	// set); the sweep pins it so bytes_per_peer is a property of the
	// simulator, not of whoever ran the harness. Recorded in the report.
	if *gogc > 0 {
		debug.SetGCPercent(*gogc)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	peers, err := parseInts(*peersList)
	if err != nil {
		fatal(err)
	}
	shards, err := parseInts(*shardsList)
	if err != nil {
		fatal(err)
	}
	var xpeers []int
	if *xpeersList != "" {
		if xpeers, err = parseInts(*xpeersList); err != nil {
			fatal(err)
		}
	}

	rep := report{
		Kind:        "scale",
		GitSHA:      benchio.GitSHA(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Goos:        runtime.GOOS,
		Goarch:      runtime.GOARCH,
		Cores:       runtime.NumCPU(),
		DurationS:   *duration,
		JoinPhaseS:  *joinS,
		DataRate:    *rate,
		ChurnPct:    *churn,
		GOGC:        *gogc,
	}

	baseCfg := func(n, s int) sim.Config {
		cfg := sim.Config{
			Seed:       *seed,
			Protocol:   sim.VDM,
			Nodes:      n,
			ChurnPct:   *churn,
			DurationS:  *duration,
			JoinPhaseS: *joinS,
			DataRate:   *rate,
			RouterMin:  *routers,
			Underlay:   sim.Router,
			Shards:     s,
		}
		if *verbose {
			start := time.Now()
			cfg.Progress = func(p sim.ProgressInfo) {
				fmt.Fprintf(os.Stderr, "  n=%d s=%d  t=%.0fs  events=%d  epochs=%d  ev/s=%.0f  wall=%.1fs\n",
					n, s, p.T, p.Events, p.Epochs, p.EventsPerSec, time.Since(start).Seconds())
			}
			cfg.ProgressEveryS = *duration / 10
		}
		return cfg
	}

	// The flight recorder attaches to the largest grid cell: the biggest
	// population at the biggest shard count (the cell worth attributing).
	profPeers, profShards := maxInt(peers), maxInt(shards)

	// serialRef remembers the serial cell per population for the
	// identical-output cross-check and the S=1 overhead ratio.
	type ref struct {
		res  *sim.Result
		wall float64
	}
	serialRef := map[int]ref{}
	rep.IdenticalOutput = true
	s1Peers := 0 // population S1OverheadRatio was taken at

	for _, n := range peers {
		for _, s := range shards {
			fmt.Fprintf(os.Stderr, "cell peers=%d shards=%d...\n", n, s)
			cfg := baseCfg(n, s)
			var profFile *os.File
			if *profOut != "" && n == profPeers && s == profShards {
				var err error
				if profFile, err = os.Create(*profOut); err != nil {
					fatal(err)
				}
				cfg.Profile = &simprof.Options{W: profFile, EveryS: *profS}
				rep.ProfileOut = *profOut
			}
			res, wall, joinWall, peakMB, err := runCell(cfg)
			if profFile != nil {
				if cerr := profFile.Close(); err == nil && cerr != nil {
					err = cerr
				}
			}
			if err != nil {
				fatal(fmt.Errorf("peers=%d shards=%d: %w", n, s, err))
			}
			rep.Cells = append(rep.Cells, cell{
				Peers:          n,
				Shards:         s,
				WallSec:        wall,
				JoinWallSec:    joinWall,
				SteadyWallSec:  wall - joinWall,
				Events:         res.EventsProcessed,
				EventsPerSec:   float64(res.EventsProcessed) / wall,
				PeakHeapMB:     peakMB,
				BytesPerPeer:   peakMB * 1e6 / float64(n),
				FinalAlive:     res.FinalAlive,
				FinalReachable: res.FinalReachable,
				Loss:           res.Loss,
				Stress:         res.Stress,
			})
			if s == 0 {
				serialRef[n] = ref{res: res, wall: wall}
			} else if base, ok := serialRef[n]; ok {
				if !sameOutput(base.res, res) {
					rep.IdenticalOutput = false
					fmt.Fprintf(os.Stderr, "DETERMINISM VIOLATION: peers=%d shards=%d diverged from serial\n", n, s)
				}
				if s == 1 && n > s1Peers {
					s1Peers = n
					rep.S1OverheadRatio = wall / base.wall
				}
			}
		}
	}

	// Extra populations (-xpeers) run once, at the largest shard count:
	// the half-million-peer style cells whose point is "does it complete
	// and at what per-peer cost", not the full engine-comparison grid.
	for _, n := range xpeers {
		s := maxInt(shards)
		fmt.Fprintf(os.Stderr, "cell peers=%d shards=%d (extra)...\n", n, s)
		res, wall, joinWall, peakMB, err := runCell(baseCfg(n, s))
		if err != nil {
			fatal(fmt.Errorf("xpeers=%d shards=%d: %w", n, s, err))
		}
		rep.Cells = append(rep.Cells, cell{
			Peers:          n,
			Shards:         s,
			WallSec:        wall,
			JoinWallSec:    joinWall,
			SteadyWallSec:  wall - joinWall,
			Events:         res.EventsProcessed,
			EventsPerSec:   float64(res.EventsProcessed) / wall,
			PeakHeapMB:     peakMB,
			BytesPerPeer:   peakMB * 1e6 / float64(n),
			FinalAlive:     res.FinalAlive,
			FinalReachable: res.FinalReachable,
			Loss:           res.Loss,
			Stress:         res.Stress,
		})
	}

	if *chapter {
		// Chapter 3 evaluates 200 peers over a 10,000 s session; this is
		// the same session (vdmsim defaults: 2,000 s join phase, 1 chunk/s,
		// 5% churn) at 100× the population, on the sharded engine.
		const chapterPeers = 20_000
		cfg := baseCfg(chapterPeers, runtime.GOMAXPROCS(0))
		cfg.DurationS = 10_000
		cfg.JoinPhaseS = 2_000
		cfg.DataRate = 1
		if *verbose {
			cfg.ProgressEveryS = cfg.DurationS / 20
		}
		fmt.Fprintf(os.Stderr, "chapter ch3-100x peers=%d shards=%d...\n", chapterPeers, cfg.Shards)
		res, wall, _, peakMB, err := runCell(cfg)
		if err != nil {
			fatal(fmt.Errorf("chapter re-run: %w", err))
		}
		rep.Chapter = &chapterRun{
			Name:         "ch3-100x",
			Peers:        chapterPeers,
			Shards:       cfg.Shards,
			DurationS:    cfg.DurationS,
			WallSec:      wall,
			Events:       res.EventsProcessed,
			EventsPerSec: float64(res.EventsProcessed) / wall,
			PeakHeapMB:   peakMB,
			Stress:       res.Stress,
			Stretch:      res.Stretch,
			Hopcount:     res.Hopcount,
			Loss:         res.Loss,
			Overhead:     res.Overhead,
			FinalAlive:   res.FinalAlive,
			Reachable:    res.FinalReachable,
		}
	}

	rep.ProcessPeakRSSMB = vmHWMMB()

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d cells", *out, len(rep.Cells))
	if rep.S1OverheadRatio > 0 {
		fmt.Printf(", S=1 overhead ×%.3f", rep.S1OverheadRatio)
	}
	fmt.Println()

	if *history != "" {
		line := map[string]any{
			"kind":              "scale",
			"git_sha":           rep.GitSHA,
			"generated_at":      rep.GeneratedAt,
			"cells":             len(rep.Cells),
			"max_peers":         maxPeers(rep.Cells),
			"identical_output":  rep.IdenticalOutput,
			"s1_overhead_ratio": rep.S1OverheadRatio,
		}
		if rep.Chapter != nil {
			line["chapter_peers"] = rep.Chapter.Peers
			line["chapter_events_per_sec"] = rep.Chapter.EventsPerSec
		}
		if err := benchio.AppendHistory(*history, line); err != nil {
			fatal(err)
		}
	}

	if err := gateReport(&rep, *maxBPP); err != nil {
		fatal(err)
	}
	if *gate > 0 && rep.S1OverheadRatio > *gate {
		fatal(fmt.Errorf("S=1 overhead ratio %.3f exceeds gate %.3f", rep.S1OverheadRatio, *gate))
	}
}

// bppFloor is the population at and above which bytes-per-peer is held to
// -maxbpp. Smaller cells are dominated by fixed costs (topology, routing
// caches) and would read as absurd per-peer numbers.
const bppFloor = 100_000

// gateReport is the pass/fail half of the harness: the engines'
// determinism contract, and the bytes-per-peer cap on every cell at or
// above bppFloor. A sweep that never reaches the floor (CI smoke) has its
// largest population gated instead, so -maxbpp asserts something
// everywhere.
func gateReport(r *report, maxBPP float64) error {
	if len(r.Cells) == 0 {
		return fmt.Errorf("report has no cells")
	}
	if !r.IdenticalOutput {
		return fmt.Errorf("sharded output diverged from serial")
	}
	if maxBPP <= 0 {
		return nil
	}
	gateAt := min(maxPeers(r.Cells), bppFloor)
	over := 0
	for _, c := range r.Cells {
		if c.Peers < gateAt {
			continue
		}
		verdict := "ok"
		if c.BytesPerPeer > maxBPP {
			verdict = "OVER"
			over++
		}
		fmt.Printf("%-4s peers=%d shards=%d  %.1f MB peak  %.0f B/peer (budget %.0f)\n",
			verdict, c.Peers, c.Shards, c.PeakHeapMB, c.BytesPerPeer, maxBPP)
	}
	if over > 0 {
		return fmt.Errorf("%d cell(s) over the %.0f B/peer budget", over, maxBPP)
	}
	return nil
}

// runCell executes one configuration and measures wall time, the
// join-phase share of it, and peak heap, sampled concurrently
// (ReadMemStats each tick, max HeapAlloc). The GC runs first so the
// sample floor is this cell's live set, not the previous cell's garbage.
func runCell(cfg sim.Config) (*sim.Result, float64, float64, float64, error) {
	runtime.GC()
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		var max uint64
		var ms runtime.MemStats
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peak <- max
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > max {
					max = ms.HeapAlloc
				}
			}
		}
	}()
	// Split the wall clock at the join-phase boundary by piggybacking on
	// the progress callback; both engines invoke it in simulated-time
	// order, so the first callback at or past JoinPhaseS marks the storm's
	// end. Progress granularity does not perturb event order (the engines'
	// determinism tests run with and without it), only sampling precision.
	start := time.Now()
	var joinWall float64
	if js := cfg.JoinPhaseS; js > 0 {
		prev, prevEvery := cfg.Progress, cfg.ProgressEveryS
		if prevEvery <= 0 || prevEvery > js/10 {
			cfg.ProgressEveryS = js / 10
		}
		crossed := false
		lastPrev := -prevEvery // first callback always passes through
		cfg.Progress = func(p sim.ProgressInfo) {
			if !crossed && p.T >= js {
				crossed = true
				joinWall = time.Since(start).Seconds()
			}
			// Keep the caller's callback at its own, coarser cadence.
			if prev != nil && p.T-lastPrev >= prevEvery {
				lastPrev = p.T
				prev(p)
			}
		}
	}
	res, err := sim.Run(cfg)
	wall := time.Since(start).Seconds()
	close(stop)
	peakB := <-peak
	if err != nil {
		return nil, 0, 0, 0, err
	}
	// A very fast cell can finish between ticks; floor at the live heap.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peakB {
		peakB = ms.HeapAlloc
	}
	return res, wall, joinWall, float64(peakB) / 1e6, nil
}

// sameOutput cross-checks the determinism contract on the metrics the
// grid records. Every value is a deterministic function of the full
// event history, so exact float equality is the correct comparison.
func sameOutput(a, b *sim.Result) bool {
	return a.EventsProcessed == b.EventsProcessed &&
		a.FinalAlive == b.FinalAlive &&
		a.FinalReachable == b.FinalReachable &&
		a.Loss == b.Loss &&
		a.Stress == b.Stress &&
		a.Stretch == b.Stretch &&
		a.Overhead == b.Overhead
}

// vmHWMMB reads the process RSS high-water mark from /proc (0 elsewhere).
func vmHWMMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad list element %q: %w", part, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func maxPeers(cells []cell) int {
	max := 0
	for _, c := range cells {
		if c.Peers > max {
			max = c.Peers
		}
	}
	return max
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchscale:", err)
	os.Exit(1)
}
