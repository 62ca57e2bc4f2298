package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"vdm/internal/obs/simprof"
	"vdm/internal/rng"
	"vdm/internal/scenario"
	"vdm/internal/sim"
)

// The router underlay's inputs, given to sim.Run explicitly and used again
// by the underlay probe (probes.go), so the two read one place.
const (
	routerMin   = 784 // routers in the transit-stub topology, at least
	jitterSigma = 0.1 // per-send delay jitter
)

// simSize is the input shape of a sim-* workload: one VDM/delay session on
// the router underlay (the benchscale cell shape).
type simSize struct {
	Peers      int     `json:"peers"`
	Shards     int     `json:"shards"` // 0 = serial engine
	DurationS  float64 `json:"simulated_s"`
	JoinPhaseS float64 `json:"join_phase_s"`
	RateCPS    float64 `json:"rate_chunks_per_s"`
	ChurnPct   float64 `json:"churn_pct"`
	// IntervalS and SettleS are the churn interval and the settle time
	// before each measurement. They are inputs of the benchmark, fixed
	// here: a change of sim's defaults must not change what is measured.
	IntervalS float64 `json:"churn_interval_s"`
	SettleS   float64 `json:"settle_s"`
}

// scenario generates the membership script from the seed. The program gets
// the generated inputs, not the seed's meaning: the harness builds the
// script with the public generator and passes it in as Config.Scenario, and
// so knows how many joins it holds and how many host slots it needs.
func (sz simSize) scenario(seed int64) *scenario.Scenario {
	return scenario.Churn(scenario.ChurnConfig{
		Nodes:      sz.Peers,
		ChurnPct:   sz.ChurnPct,
		JoinPhaseS: sz.JoinPhaseS,
		IntervalS:  sz.IntervalS,
		SettleS:    sz.SettleS,
		DurationS:  sz.DurationS,
	}, rng.Derive(seed, "scenario"))
}

func (sz simSize) config(seed int64) sim.Config {
	return sim.Config{
		Seed:       seed,
		Scenario:   sz.scenario(seed),
		Protocol:   sim.VDM,
		Nodes:      sz.Peers,
		ChurnPct:   sz.ChurnPct,
		DurationS:  sz.DurationS,
		JoinPhaseS: sz.JoinPhaseS,
		DataRate:   sz.RateCPS,
		Underlay:   sim.Router,
		Shards:     sz.Shards,

		RouterMin:         routerMin,
		RouterJitterSigma: jitterSigma,
	}
}

// simMode says what a sim.Run call is measured for.
type simMode int

const (
	// Untraced; its times are the end-to-end metrics.
	modeTimed simMode = iota
	// Flight recorder and message tap on; feeds the per-layer counts.
	modeTraced
	// Measures memory and nothing else. The live heap is a
	// function of simulated time, but the runtime only reads it when a GC
	// cycle ends, and the scale cell makes four cycles above 60 MB: whether
	// one lands on the peak decides between 72 and 81 MB. So this pass
	// forces a collection heapSteps times, evenly spaced over the simulated
	// session, and takes the largest live heap found.
	modeHeap
)

const heapSteps = 30

// simRun is everything one sim.Run call measured.
type simRun struct {
	res *sim.Result
	// setupS runs from sim.Run entry to the first Progress callback at a
	// 1 s simulated cadence: topology, underlay, scenario and peer arena
	// are built by then, plus at most the first simulated second. wallS is
	// the rest of the session; joinWallS its part before the simulated
	// clock crossed the join phase.
	setupS, wallS, joinWallS float64
	rt                       rtSnap
	peakHeapMB               float64 // modeHeap only

	joins, pool int // join events in the script, host slots it uses

	// Traced runs only.
	prof                  *simprof.Recording
	msgsTotal, msgsSource uint64
}

// runSim executes one session; the Result is byte-identical in every mode.
func runSim(sz simSize, seed int64, mode simMode, spans *spanLog, run string) (*simRun, error) {
	top, endTop := spans.begin(run, "sim.Run", 0)
	_, endSetup := spans.begin(run, "sim.setup", top)
	var endJoin, endSteady func()

	runtime.GC() // start from this run's live set, not the last run's garbage
	rt0 := takeRT()
	start := time.Now()

	// Generating the script is part of set-up, as it is inside sim.Run.
	cfg := sz.config(seed)
	r := &simRun{pool: cfg.Scenario.PoolSize}
	for _, ev := range cfg.Scenario.Events {
		if ev.Join {
			r.joins++
		}
	}
	var profBuf bytes.Buffer
	if mode == modeTraced {
		cfg.Profile = &simprof.Options{W: &profBuf, EveryS: 10}
		cfg.Trace = func(at float64, from, to int, msgType string) {
			r.msgsTotal++
			if from == 0 || to == 0 {
				r.msgsSource++
			}
		}
	}
	var setupAt, joinAt time.Duration
	var peakLive uint64
	collect := func() {
		runtime.GC()
		peakLive = max(peakLive, heapLive())
	}
	heapStep := sz.DurationS / heapSteps
	nextCollect := heapStep
	cfg.ProgressEveryS = 1
	cfg.Progress = func(p sim.ProgressInfo) {
		if mode == modeHeap && p.T >= nextCollect {
			collect()
			for nextCollect <= p.T {
				nextCollect += heapStep
			}
		}
		if setupAt == 0 {
			setupAt = time.Since(start)
			endSetup()
			_, endJoin = spans.begin(run, "sim.join_phase", top)
		}
		if joinAt == 0 && p.T >= sz.JoinPhaseS {
			joinAt = time.Since(start)
			endJoin()
			_, endSteady = spans.begin(run, "sim.steady_phase", top)
		}
	}
	res, err := sim.Run(cfg)
	total := time.Since(start)
	r.rt = takeRT().since(rt0)
	if mode == modeHeap {
		collect() // the Result is still held
		r.peakHeapMB = float64(peakLive) / 1e6
	}
	if endSteady != nil {
		endSteady()
	}
	endTop()
	if err != nil {
		return nil, err
	}
	if setupAt == 0 || joinAt == 0 {
		return nil, fmt.Errorf("sim.Run made no Progress callback past the join phase")
	}
	r.res = res
	r.setupS = setupAt.Seconds()
	r.wallS = (total - setupAt).Seconds()
	r.joinWallS = (joinAt - setupAt).Seconds()
	if mode == modeTraced {
		if r.prof, err = simprof.Read(&profBuf); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// fingerprint renders everything a session reports except its Config (the
// engines differ only there) and hashes it: two runs are the same output
// exactly when their fingerprints match.
func fingerprint(res *sim.Result) string {
	h := sha256.New()
	c := *res
	c.Config = sim.Config{}
	fmt.Fprintf(h, "%+v", c)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
