// Command vdmsim runs one chapter-3-style simulation session (router-graph
// underlay) and prints the paper's metrics.
//
//	vdmsim -protocol vdm -nodes 200 -churn 5
//	vdmsim -protocol hmtp -nodes 200 -churn 5 -samples
//	vdmsim -protocol vdm -nodes 50 -events events.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"vdm/internal/obs"
	"vdm/internal/obs/simprof"
	"vdm/internal/scenario"
	"vdm/internal/sim"
)

func main() {
	var (
		protocol = flag.String("protocol", "vdm", "vdm | hmtp | btp | nice | random")
		metric   = flag.String("metric", "delay", "delay | loss | bandwidth")
		nodes    = flag.Int("nodes", 200, "overlay population")
		churn    = flag.Float64("churn", 5, "churn percent per interval")
		degMin   = flag.Int("degmin", 2, "minimum node degree")
		degMax   = flag.Int("degmax", 5, "maximum node degree")
		avgDeg   = flag.Float64("avgdeg", 0, "average degree (overrides degmin/degmax)")
		gamma    = flag.Float64("gamma", 0, "VDM collinearity threshold (0 = default)")
		refine   = flag.Float64("refine", 0, "VDM refinement period in seconds (0 = off)")
		duration = flag.Float64("duration", 10000, "session length (s)")
		joinS    = flag.Float64("join", 2000, "join phase length (s)")
		rate     = flag.Float64("rate", 1, "stream rate (chunks/s)")
		linkLoss = flag.Float64("linkloss", 0, "max per-link error rate (chapter 4)")
		seed     = flag.Int64("seed", 1, "seed")
		routers  = flag.Int("routers", 784, "minimum router count")
		jitter   = flag.Float64("jitter", 0.1, "measurement/queueing jitter sigma (<0 disables)")
		scenFile = flag.String("scenario", "", "replay a scenario script (see topogen -scenario)")
		traceN   = flag.Int("trace", 0, "print the first N protocol messages")
		eventsTo = flag.String("events", "", "write VDM protocol trace events as JSONL to this file")
		samples  = flag.Bool("samples", false, "print the per-measurement time series")
		mstRatio = flag.Bool("mst", false, "compute tree/MST cost ratio")
		shards   = flag.Int("shards", -1, "shard count for the parallel engine (-1 = one per core, 0 = serial)")
		progress = flag.Float64("progress", 0, "print progress to stderr every N simulated seconds (0 = off)")
		cpPath   = flag.String("checkpoint", "", "checkpoint file, written at measurement barriers and resumed if present; sharded engine only (an error with -shards 0 or -metric loss-est)")
		cpEvery  = flag.Float64("checkpoint-every", 0, "simulated seconds between checkpoints (0 = every measurement)")
		profOut  = flag.String("profileout", "", "write the flight-recorder JSONL stream here (enables profiling)")
		profS    = flag.Float64("profile", 0, "flight-recorder flush interval in simulated seconds (0 = default 10; needs -profileout)")
	)
	flag.Parse()

	nshards := *shards
	if nshards < 0 {
		nshards = runtime.GOMAXPROCS(0)
		if *metric == "loss-est" {
			// The estimated-loss metric draws from a shared stream in
			// query order; only the serial engine runs it.
			nshards = 0
		}
	}
	var progressFn func(sim.ProgressInfo)
	if *progress > 0 {
		start := time.Now()
		progressFn = func(p sim.ProgressInfo) {
			fmt.Fprintf(os.Stderr, "t=%.0fs/%.0fs  events=%d  epochs=%d  ev/s=%.0f  wall=%.1fs\n",
				p.T, *duration, p.Events, p.Epochs, p.EventsPerSec, time.Since(start).Seconds())
		}
	}

	var profile *simprof.Options
	if *profOut != "" {
		f, err := os.Create(*profOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		profile = &simprof.Options{W: f, EveryS: *profS}
	}

	var scn *scenario.Scenario
	if *scenFile != "" {
		f, err := os.Open(*scenFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		scn, err = scenario.Read(f)
		_ = f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		*duration = scn.DurationS
	}

	var traced int
	var traceFn func(at float64, from, to int, msgType string)
	if *traceN > 0 {
		traceFn = func(at float64, from, to int, msgType string) {
			if traced < *traceN && msgType != "overlay.DataChunk" {
				fmt.Printf("trace t=%9.4f  %4d -> %-4d %s\n", at, from, to, msgType)
				traced++
			}
		}
	}

	var eventSink obs.Sink
	if *eventsTo != "" {
		f, err := os.Create(*eventsTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		eventSink = obs.NewJSONLSink(f)
	}

	res, err := sim.Run(sim.Config{
		Scenario:          scn,
		Trace:             traceFn,
		EventSink:         eventSink,
		Seed:              *seed,
		Protocol:          sim.ProtocolKind(*protocol),
		Metric:            *metric,
		Nodes:             *nodes,
		ChurnPct:          *churn,
		DegreeMin:         *degMin,
		DegreeMax:         *degMax,
		AvgDegree:         *avgDeg,
		Gamma:             *gamma,
		VDMRefinePeriodS:  *refine,
		DurationS:         *duration,
		JoinPhaseS:        *joinS,
		DataRate:          *rate,
		LinkLossMax:       *linkLoss,
		RouterMin:         *routers,
		RouterJitterSigma: *jitter,
		Underlay:          sim.Router,
		ComputeMST:        *mstRatio,
		Shards:            nshards,
		Progress:          progressFn,
		ProgressEveryS:    *progress,
		Profile:           profile,
		CheckpointPath:    *cpPath,
		CheckpointEveryS:  *cpEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("protocol=%s metric=%s nodes=%d churn=%.1f%%\n", *protocol, *metric, *nodes, *churn)
	fmt.Printf("  stress      %.3f (max %.1f)\n", res.Stress, res.MaxStress)
	fmt.Printf("  stretch     %.3f (min %.2f leaf %.2f max %.2f)\n", res.Stretch, res.MinStretch, res.LeafStretch, res.MaxStretch)
	fmt.Printf("  hopcount    %.2f (leaf %.2f max %.0f)\n", res.Hopcount, res.LeafHopcount, res.MaxHopcount)
	fmt.Printf("  usage       %.1f ms (normalized %.3f)\n", res.UsageMS, res.UsageNorm)
	fmt.Printf("  loss        %.3f%%\n", res.Loss*100)
	fmt.Printf("  overhead    %.3f%%\n", res.Overhead*100)
	fmt.Printf("  startup     avg %.3fs max %.3fs\n", res.StartupAvg, res.StartupMax)
	fmt.Printf("  reconnect   avg %.3fs max %.3fs (%d reconnections)\n", res.ReconnAvg, res.ReconnMax, res.ReconnCount)
	if *mstRatio {
		fmt.Printf("  MST ratio   %.3f\n", res.MSTRatio)
	}
	fmt.Printf("  final       %d alive, %d reachable; %d events\n", res.FinalAlive, res.FinalReachable, res.EventsProcessed)

	if *samples {
		fmt.Println("\n  t(s)      stress  stretch  loss%%   overhead%%")
		for _, s := range res.Samples {
			fmt.Printf("  %-9.0f %-7.3f %-8.3f %-7.3f %.3f\n", s.T, s.Tree.Stress, s.Tree.Stretch, s.Loss*100, s.Overhead*100)
		}
	}
}
