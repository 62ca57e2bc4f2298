// Command vdmsim runs one simulation session and prints the paper's
// metrics, on either testbed the paper evaluates: the transit-stub router
// graph of the chapter-3/4 NS-2 simulations (-underlay router, the
// default) or the synthetic PlanetLab of the chapter-5 emulations
// (-underlay geo). A geo session runs through the lab front end: the
// node-selection pipeline of figure 5.2, the Colorado source, pool
// sampling and the sample tree of figures 5.5/5.6. Flags left unset take
// the chosen underlay's paper setup. -dump prints the router underlay or
// a churn script instead of running a session.
//
//	vdmsim -protocol vdm -nodes 200 -churn 5
//	vdmsim -protocol hmtp -nodes 200 -churn 5 -samples
//	vdmsim -protocol vdm -nodes 50 -events events.jsonl
//	vdmsim -underlay geo -protocol vdm -nodes 100 -churn 10 -tree
//	vdmsim -dump topology -routers 784
//	vdmsim -dump scenario -nodes 200 -churn 5 > churn.txt
//	vdmsim -scenario churn.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vdm/internal/lab"
	"vdm/internal/obs"
	"vdm/internal/obs/simprof"
	"vdm/internal/parallel"
	"vdm/internal/rng"
	"vdm/internal/scenario"
	"vdm/internal/sim"
	"vdm/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// paperDefaults is each underlay's paper setup, applied to the flags the
// command line leaves unset: the chapter-3 simulations and the chapter-5
// PlanetLab runs.
var paperDefaults = map[string]map[string]string{
	"router": {"nodes": "200", "churn": "5", "degmin": "2", "degmax": "5", "duration": "10000", "rate": "1"},
	"geo":    {"nodes": "100", "churn": "10", "degmin": "4", "degmax": "4", "duration": "5000", "rate": "10"},
}

// notOn lists, per underlay, the flags that only the other one reads.
var notOn = map[string][]string{
	"router": {"us"},
	"geo":    {"linkloss", "routers", "jitter", "scenario", "dump"},
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vdmsim", flag.ContinueOnError)
	var (
		underlay = fs.String("underlay", "router", "router (chapter-3/4 transit-stub graph) | geo (chapter-5 synthetic PlanetLab)")
		dump     = fs.String("dump", "", "print instead of simulating: topology | links | scenario (router underlay)")
		protocol = fs.String("protocol", "vdm", "vdm | hmtp | btp | nice | random")
		metric   = fs.String("metric", "delay", "delay | loss | bandwidth | loss-est (serial engine only)")
		nodes    = fs.Int("nodes", 0, "overlay population (router 200, geo 100)")
		churn    = fs.Float64("churn", 0, "churn percent per interval (router 5, geo 10)")
		degMin   = fs.Int("degmin", 0, "minimum node degree (router 2, geo 4)")
		degMax   = fs.Int("degmax", 0, "maximum node degree (router 5, geo 4; geo needs degmin = degmax)")
		avgDeg   = fs.Float64("avgdeg", 0, "average degree (overrides degmin/degmax)")
		gamma    = fs.Float64("gamma", 0, "VDM collinearity threshold (0 = default)")
		refine   = fs.Float64("refine", 0, "VDM refinement period in seconds (0 = off)")
		foster   = fs.Bool("foster", false, "VDM quick-start (foster join)")
		duration = fs.Float64("duration", 0, "session length in s (router 10000, geo 5000)")
		joinS    = fs.Float64("join", 2000, "join phase length (s)")
		rate     = fs.Float64("rate", 0, "stream rate in chunks/s (router 1, geo 10)")
		linkLoss = fs.Float64("linkloss", 0, "max per-link error rate (chapter 4; router)")
		seed     = fs.Int64("seed", 1, "seed")
		routers  = fs.Int("routers", 784, "minimum router count (router)")
		jitter   = fs.Float64("jitter", 0.1, "measurement/queueing jitter sigma, <0 disables (router)")
		scenFile = fs.String("scenario", "", "replay a scenario script, e.g. one -dump scenario wrote (router)")
		usOnly   = fs.Bool("us", true, "restrict to US sites, the paper's pool (geo)")
		traceN   = fs.Int("trace", 0, "print the first N protocol messages")
		eventsTo = fs.String("events", "", "write VDM protocol trace events as JSONL to this file")
		samples  = fs.Bool("samples", false, "print the per-measurement time series")
		mstRatio = fs.Bool("mst", false, "compute tree/MST cost ratio")
		tree     = fs.Bool("tree", false, "print the final overlay tree")
		dot      = fs.Bool("dot", false, "print the final tree as Graphviz DOT")
		reps     = fs.Int("reps", 1, "repetitions with derived seeds; metrics are averaged")
		jobs     = fs.Int("j", 0, "parallel workers for repetitions (0 = all cores, 1 = serial)")
		shards   = fs.Int("shards", 0, "0 = serial engine, S ≥ 1 = sharded engine with S shards (same output)")
		progress = fs.Float64("progress", 0, "print progress to stderr every N simulated seconds (0 = off)")
		profOut  = fs.String("profileout", "", "write the flight-recorder JSONL stream here (enables profiling)")
		profS    = fs.Float64("profile", 0, "flight-recorder flush interval in simulated seconds (0 = default 10; needs -profileout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	defaults, ok := paperDefaults[*underlay]
	if !ok {
		return fmt.Errorf("unknown -underlay %q (router | geo)", *underlay)
	}
	for _, name := range notOn[*underlay] {
		if set[name] {
			return fmt.Errorf("-%s does not apply to -underlay %s", name, *underlay)
		}
	}
	if set["profile"] && *profOut == "" {
		return fmt.Errorf("-profile sets the flight recorder's interval and needs -profileout")
	}
	for name, v := range defaults {
		if !set[name] {
			if err := fs.Set(name, v); err != nil {
				return err
			}
		}
	}

	if *dump != "" {
		return dumpRouter(stdout, *dump, *routers, *seed, scenario.ChurnConfig{
			Nodes:      *nodes,
			ChurnPct:   *churn,
			JoinPhaseS: *joinS,
			IntervalS:  400,
			SettleS:    100,
			DurationS:  *duration,
		})
	}
	if *underlay == "geo" && *degMin != *degMax {
		return fmt.Errorf("-underlay geo runs one fixed degree: -degmin %d and -degmax %d differ", *degMin, *degMax)
	}
	if *reps < 1 {
		*reps = 1
	}
	if *reps > 1 {
		for _, name := range []string{"trace", "events", "progress", "profileout"} {
			if set[name] {
				return fmt.Errorf("-%s observes one session and needs -reps 1", name)
			}
		}
	}

	var progressFn func(sim.ProgressInfo)
	if *progress > 0 {
		start := time.Now()
		progressFn = func(p sim.ProgressInfo) {
			fmt.Fprintf(os.Stderr, "t=%.0fs/%.0fs  events=%d  epochs=%d  ev/s=%.0f  wall=%.2fs\n",
				p.T, *duration, p.Events, p.Epochs, p.EventsPerSec, time.Since(start).Seconds())
		}
	}

	var profile *simprof.Options
	if *profOut != "" {
		f, err := os.Create(*profOut)
		if err != nil {
			return err
		}
		defer f.Close()
		profile = &simprof.Options{W: f, EveryS: *profS}
	}

	var scn *scenario.Scenario
	if *scenFile != "" {
		f, err := os.Open(*scenFile)
		if err != nil {
			return err
		}
		scn, err = scenario.Read(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		*duration = scn.DurationS
	}

	var traced int
	var traceFn func(at float64, from, to int, msgType string)
	if *traceN > 0 {
		traceFn = func(at float64, from, to int, msgType string) {
			if traced < *traceN && msgType != "overlay.DataChunk" {
				fmt.Fprintf(stdout, "trace t=%9.4f  %4d -> %-4d %s\n", at, from, to, msgType)
				traced++
			}
		}
	}

	var eventSink obs.Sink
	if *eventsTo != "" {
		f, err := os.Create(*eventsTo)
		if err != nil {
			return err
		}
		defer f.Close()
		eventSink = obs.NewJSONLSink(f)
	}

	// Repetitions are independent cells: each derives its own seed, so
	// the aggregate is identical at any worker count. lab.Configure places
	// a geo session by the chapter-5 methodology; rep 0's selection is
	// the one printed.
	var sel *lab.Selection
	results, err := parallel.Map(*reps, *jobs, func(rep int) (*sim.Result, error) {
		cfg, repSel, err := lab.Configure(sim.Config{
			Scenario:          scn,
			Seed:              *seed + int64(rep)*7_919,
			Protocol:          sim.ProtocolKind(*protocol),
			Metric:            *metric,
			Nodes:             *nodes,
			ChurnPct:          *churn,
			DegreeMin:         *degMin,
			DegreeMax:         *degMax,
			AvgDegree:         *avgDeg,
			Gamma:             *gamma,
			VDMRefinePeriodS:  *refine,
			VDMFosterJoin:     *foster,
			DurationS:         *duration,
			JoinPhaseS:        *joinS,
			DataRate:          *rate,
			LinkLossMax:       *linkLoss,
			RouterMin:         *routers,
			RouterJitterSigma: *jitter,
			Underlay:          sim.UnderlayKind(*underlay),
			GeoUSOnly:         *usOnly,
			ComputeMST:        *mstRatio,
			Shards:            *shards,
			Progress:          progressFn,
			ProgressEveryS:    *progress,
			Profile:           profile,
			Trace:             traceFn,
			EventSink:         eventSink,
		})
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			sel = repSel
		}
		return sim.Run(cfg)
	})
	if err != nil {
		return err
	}
	res := results[0]
	if *reps > 1 {
		fmt.Fprintf(stdout, "aggregated over %d repetitions (mean; tree/clustering from rep 0)\n", *reps)
		res = meanResult(results)
	}

	if *underlay == "geo" {
		fmt.Fprintf(stdout, "node selection: %s\n", sel)
		fmt.Fprintf(stdout, "protocol=%s nodes=%d degree=%d churn=%.1f%%\n", *protocol, *nodes, *degMin, *churn)
		fmt.Fprintf(stdout, "  startup     avg %.3fs max %.3fs\n", res.StartupAvg, res.StartupMax)
		fmt.Fprintf(stdout, "  reconnect   avg %.3fs max %.3fs (%d reconnections)\n", res.ReconnAvg, res.ReconnMax, res.ReconnCount)
		fmt.Fprintf(stdout, "  stretch     %.3f (min %.2f leaf %.2f max %.2f)\n", res.Stretch, res.MinStretch, res.LeafStretch, res.MaxStretch)
		fmt.Fprintf(stdout, "  hopcount    %.2f (leaf %.2f max %.0f)\n", res.Hopcount, res.LeafHopcount, res.MaxHopcount)
		fmt.Fprintf(stdout, "  usage       %.1f ms (normalized %.3f)\n", res.UsageMS, res.UsageNorm)
		fmt.Fprintf(stdout, "  loss        %.3f%%\n", res.Loss*100)
		fmt.Fprintf(stdout, "  overhead    %.4f\n", res.Overhead)
		if *mstRatio {
			fmt.Fprintf(stdout, "  MST ratio   %.3f\n", res.MSTRatio)
		}
		fmt.Fprintf(stdout, "  final       %d alive, %d reachable\n", res.FinalAlive, res.FinalReachable)
		intra, inter, perRegion := lab.ClusterStats(res)
		fmt.Fprintf(stdout, "  clustering  %d intra-region edges, %d cross-region (%s)\n",
			intra, inter, strings.Join(lab.Regions(perRegion), " "))
	} else {
		fmt.Fprintf(stdout, "protocol=%s metric=%s nodes=%d churn=%.1f%%\n", *protocol, *metric, *nodes, *churn)
		fmt.Fprintf(stdout, "  stress      %.3f (max %.1f)\n", res.Stress, res.MaxStress)
		fmt.Fprintf(stdout, "  stretch     %.3f (min %.2f leaf %.2f max %.2f)\n", res.Stretch, res.MinStretch, res.LeafStretch, res.MaxStretch)
		fmt.Fprintf(stdout, "  hopcount    %.2f (leaf %.2f max %.0f)\n", res.Hopcount, res.LeafHopcount, res.MaxHopcount)
		fmt.Fprintf(stdout, "  usage       %.1f ms (normalized %.3f)\n", res.UsageMS, res.UsageNorm)
		fmt.Fprintf(stdout, "  loss        %.3f%%\n", res.Loss*100)
		fmt.Fprintf(stdout, "  overhead    %.3f%%\n", res.Overhead*100)
		fmt.Fprintf(stdout, "  startup     avg %.3fs max %.3fs\n", res.StartupAvg, res.StartupMax)
		fmt.Fprintf(stdout, "  reconnect   avg %.3fs max %.3fs (%d reconnections)\n", res.ReconnAvg, res.ReconnMax, res.ReconnCount)
		if *mstRatio {
			fmt.Fprintf(stdout, "  MST ratio   %.3f\n", res.MSTRatio)
		}
		fmt.Fprintf(stdout, "  final       %d alive, %d reachable; %d events\n", res.FinalAlive, res.FinalReachable, res.EventsProcessed)
	}

	if *samples {
		fmt.Fprintln(stdout, "\n  t(s)      stress  stretch  loss%%   overhead%%")
		for _, s := range res.Samples {
			fmt.Fprintf(stdout, "  %-9.0f %-7.3f %-8.3f %-7.3f %.3f\n", s.T, s.Tree.Stress, s.Tree.Stretch, s.Loss*100, s.Overhead*100)
		}
	}
	if *tree {
		fmt.Fprintln(stdout, "\nfinal overlay tree (indent = depth):")
		fmt.Fprint(stdout, lab.RenderTree(res))
	}
	if *dot {
		fmt.Fprint(stdout, lab.DOT(res))
	}
	return nil
}

// dumpRouter prints what a router session would build instead of running
// it: the transit-stub topology's structure (topology), that plus every
// link (links), or the churn script in the format -scenario reads
// (scenario).
func dumpRouter(w io.Writer, what string, routers int, seed int64, churn scenario.ChurnConfig) error {
	switch what {
	case "scenario":
		return scenario.Churn(churn, rng.New(seed)).Write(w)
	case "topology", "links":
	default:
		return fmt.Errorf("unknown -dump %q (topology | links | scenario)", what)
	}
	cfg := topology.ScaledTransitStub(routers)
	ts, err := topology.GenerateTransitStub(cfg, rng.New(seed))
	if err != nil {
		return err
	}
	g := ts.Graph
	fmt.Fprintf(w, "transit-stub topology: %d routers, %d links\n", g.NumRouters(), g.NumLinks())
	fmt.Fprintf(w, "  transit domains %d x %d routers, %d stubs/transit x %d routers\n",
		cfg.TransitDomains, cfg.TransitPerDom, cfg.StubsPerTransit, cfg.StubSize)
	fmt.Fprintf(w, "  transit routers %d, stub routers %d, connected=%v\n",
		len(ts.TransitIDs), len(ts.StubIDs), g.Connected())

	var totalDelay float64
	for _, l := range g.Links() {
		totalDelay += l.DelayMS
	}
	fmt.Fprintf(w, "  mean link delay %.2f ms\n", totalDelay/float64(g.NumLinks()))

	if what == "links" {
		for _, l := range g.Links() {
			fmt.Fprintf(w, "  link %d: r%d - r%d  %.2f ms\n", l.ID, l.A, l.B, l.DelayMS)
		}
	}
	return nil
}

// meanResult averages the session metrics over repetitions, keeping the
// first repetition's tree for display.
func meanResult(results []*sim.Result) *sim.Result {
	s := *results[0]
	s.Stress, s.MaxStress = 0, 0
	s.Stretch, s.MinStretch, s.MaxStretch, s.LeafStretch = 0, 0, 0, 0
	s.Hopcount, s.LeafHopcount, s.MaxHopcount = 0, 0, 0
	s.UsageMS, s.UsageNorm, s.Loss, s.Overhead = 0, 0, 0, 0
	s.StartupAvg, s.StartupMax, s.ReconnAvg, s.ReconnMax = 0, 0, 0, 0
	s.MSTRatio, s.DCMSTRatio = 0, 0
	var reconns, alive, reach float64
	inv := 1 / float64(len(results))
	for _, r := range results {
		s.Stress += r.Stress * inv
		s.MaxStress += r.MaxStress * inv
		s.Stretch += r.Stretch * inv
		s.MinStretch += r.MinStretch * inv
		s.MaxStretch += r.MaxStretch * inv
		s.LeafStretch += r.LeafStretch * inv
		s.Hopcount += r.Hopcount * inv
		s.LeafHopcount += r.LeafHopcount * inv
		s.MaxHopcount += r.MaxHopcount * inv
		s.UsageMS += r.UsageMS * inv
		s.UsageNorm += r.UsageNorm * inv
		s.Loss += r.Loss * inv
		s.Overhead += r.Overhead * inv
		s.StartupAvg += r.StartupAvg * inv
		s.StartupMax += r.StartupMax * inv
		s.ReconnAvg += r.ReconnAvg * inv
		s.ReconnMax += r.ReconnMax * inv
		s.MSTRatio += r.MSTRatio * inv
		s.DCMSTRatio += r.DCMSTRatio * inv
		reconns += float64(r.ReconnCount) * inv
		alive += float64(r.FinalAlive) * inv
		reach += float64(r.FinalReachable) * inv
	}
	s.ReconnCount = int(reconns + 0.5)
	s.FinalAlive = int(alive + 0.5)
	s.FinalReachable = int(reach + 0.5)
	return &s
}
