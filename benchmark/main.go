// Command benchmark measures the two products of this repository from
// outside, through their public functions: the simulator (sim.Run) and
// the live UDP plane (transport.NewUDP, live.NewSourceSession/JoinSession/
// NewPeer, core.New). It runs five named workloads, prints every metric by
// name with its unit, checks the outputs, and writes one JSON result.
//
//	go run . [-seed 1]                             all workloads, 3 repetitions + one traced run each
//	go run . -smoke                                the same at toy size, a few seconds
//	go run . -compare a.json b.json                two results against the regression bounds
//	go run . -workload sim-scale-cell -seed 3 -seconds 12 -trace 0
//
// The last form is the one BENCHMARK.json's command makes (through
// run.sh): one workload, and the result as one JSON object on the last
// line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"vdm/internal/benchio"
)

const (
	// runSeconds is BENCHMARK.json's run_seconds: the length of a live
	// stream, and the measured time sim repetitions fill.
	runSeconds = 12
	// repetitions is k, the untraced repetitions of each workload when all
	// five run; -smoke makes one.
	repetitions = 3
	// gcPercent is pinned so peak-heap numbers are a property of the
	// program, not of the caller's environment.
	gcPercent = 50
)

// env stamps a result with what it ran on.
type env struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       int     `json:"gogc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Link       string  `json:"link"`
	At         string  `json:"generated_at"`
}

// stat is one end-to-end metric over a workload's untraced repetitions.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

type workloadResult struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Sizes     any      `json:"sizes"`
	Reps      int      `json:"repetitions"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Flags     []string `json:"flags,omitempty"`
	// Unresolved names end-to-end metrics this machine cannot resolve;
	// -compare never reports them as ok or regressed.
	Unresolved []string              `json:"unresolved,omitempty"`
	EndToEnd   map[string]stat       `json:"end_to_end,omitempty"`
	PerLayer   map[string]layerValue `json:"per_layer,omitempty"`
}

type result struct {
	Env       env              `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("workload", "", "run this workload alone and print the result line the driver reads (default: all five)")
		seed    = fs.Int64("seed", 1, "the only source of randomness: sim.Config.Seed and the live loss pattern")
		seconds = fs.Float64("seconds", runSeconds, "length of a live stream; sim repetitions repeat until this much time is measured")
		trace   = fs.String("trace", "", "0 = untraced repetitions only, 1 = traced run only, empty = both")
		smoke   = fs.Bool("smoke", false, "every workload at toy size, one repetition")
		outdir  = fs.String("outdir", defaultOutDir(), "directory for result.json (all workloads) and trace.json")
		compare = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	k := repetitions
	if *smoke {
		k, *seconds = 1, 1
	}
	ws := workloads(*smoke)
	if *only != "" {
		var picked []workload
		for _, w := range ws {
			if w.Name == *only {
				picked = append(picked, w)
			}
		}
		if picked == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *only)
			return 2
		}
		ws = picked
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	debug.SetGCPercent(gcPercent)
	res := result{Env: env{
		GitSHA:     benchio.GitSHA(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gcPercent,
		Seed:       *seed,
		Seconds:    *seconds,
		Smoke:      *smoke,
		Link:       "live-* traffic crosses the host's loopback interface, not a real link",
		At:         time.Now().UTC().Format(time.RFC3339),
	}}

	h := newHarness(*seed)
	res.Workloads = h.measure(ws, *seconds, k, *trace, *only != "")
	for _, wr := range res.Workloads {
		printWorkload(stdout, wr)
	}
	fmt.Fprintf(stdout, "\nenv: git %s, %s, nproc %d, GOMAXPROCS %d, GOGC %d, seed %d; %s\n",
		res.Env.GitSHA, res.Env.GoVersion, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.GOGC, res.Env.Seed, res.Env.Link)

	exit := 0
	for _, wr := range res.Workloads {
		if !wr.Correct {
			exit = 1
		}
	}
	if *trace != "0" {
		if err := h.spans.write(filepath.Join(*outdir, "trace.json")); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			exit = 1
		}
	}
	if *only == "" {
		out := filepath.Join(*outdir, "result.json")
		if err := writeJSON(out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			exit = 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", out)
	}
	if *only != "" && *trace != "" {
		fmt.Fprintln(stdout, driverLine(res.Workloads[0], *trace == "1"))
	}
	return exit
}

// defaultOutDir is benchmark/out, from the repository root or from inside
// the benchmark directory.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// measure runs the untraced repetitions of every workload round-robin, so
// machine drift spreads evenly over them, then one traced run each.
//
// A sim repetition is one sim.Run, a live repetition one session streaming
// for `seconds`; every workload gets k of them, and a sim workload one more
// session after them that measures its memory. A workload asked for alone
// is the driver's case, and the driver repeats the whole invocation: there
// a sim workload repeats on until `seconds` of time are measured, and a
// live workload runs one session. With trace "1" a single short repetition
// stands in as the base the traced run's overhead is taken against.
func (h *harness) measure(ws []workload, seconds float64, k int, trace string, single bool) []workloadResult {
	reps := make([][]rep, len(ws))
	spent := make([]float64, len(ws))
	liveSeconds := seconds
	if trace == "1" {
		k, seconds, liveSeconds = 1, 0, seconds/2
	}
	wants := func(i int) bool {
		n := len(reps[i])
		if ws[i].Plane == planeLive {
			return n < k && !(single && n >= 1)
		}
		return n < k || (single && spent[i] < seconds)
	}
	for again := true; again; {
		again = false
		for i, w := range ws {
			if !wants(i) {
				continue
			}
			r := h.rep(w, liveSeconds)
			reps[i] = append(reps[i], r)
			if t := r.e2e["setup_s"] + r.e2e["wall_s"]; t > 0 {
				spent[i] += t
			} else {
				spent[i] += seconds // the run errored: it is not retried for time
			}
			again = true
		}
	}

	out := make([]workloadResult, len(ws))
	for i, w := range ws {
		wr := workloadResult{Name: w.Name, Why: w.Why, Sizes: w.sizes(), Reps: len(reps[i])}
		if w.Plane == planeSim {
			// Memory is measured in a pass of its own; see modeHeap.
			reps[i] = append(reps[i], h.simModeRep(w, modeHeap, "heap-pass"))
		}
		for _, r := range reps[i] {
			wr.Attempted += r.attempted
			wr.Failed += r.failed
			wr.Problems = append(wr.Problems, r.problems...)
			for _, f := range r.flags {
				if !slices.Contains(wr.Flags, f) {
					wr.Flags = append(wr.Flags, f)
				}
			}
		}
		if trace != "1" {
			wr.EndToEnd = map[string]stat{}
			for _, m := range endToEnd {
				if xs := values(reps[i], e2eOf, m.Name); len(xs) > 0 {
					lo, hi := minMax(xs)
					wr.EndToEnd[m.Name] = stat{Unit: m.Unit, Median: median(xs), Min: lo, Max: hi, Values: xs}
				}
			}
		}
		if trace != "0" && reps[i][0].aux != nil {
			layers, err := h.traced(w, liveSeconds, reps[i])
			if err != nil {
				wr.Problems = append(wr.Problems, "traced run: "+err.Error())
			} else {
				wr.PerLayer = map[string]layerValue{}
				for _, m := range perLayer {
					wr.PerLayer[m.Name] = layerValue{Unit: m.Unit, Value: layers[m.Name]}
				}
				// With no end-to-end section (trace "1"), the metrics the
				// driver cannot gate ride along with the layers.
				if trace == "1" {
					for _, m := range endToEnd {
						if m.Driver == 0 {
							wr.PerLayer[m.Name] = layerValue{Unit: m.Unit, Value: median(values(reps[i], e2eOf, m.Name))}
						}
					}
				}
			}
		}
		if w.Plane == planeSim && w.Sim.Shards > 1 && runtime.NumCPU() < 2 {
			wr.Unresolved = []string{"setup_s", "wall_s", "events_per_s", "cpu_us_per_delivery"}
			wr.Flags = append(wr.Flags, "fewer than 2 CPUs: sharded timings are not comparable")
		}
		wr.Correct = len(wr.Problems) == 0
		out[i] = wr
	}
	return out
}

func printWorkload(w io.Writer, wr workloadResult) {
	sizes, _ := json.Marshal(wr.Sizes)
	fmt.Fprintf(w, "\n== %s  (%d untraced repetitions)\n   %s\n   inputs %s\n", wr.Name, wr.Reps, wr.Why, sizes)
	for _, m := range endToEnd {
		if s, ok := wr.EndToEnd[m.Name]; ok {
			gate := ""
			if m.Driver > 0 {
				gate = fmt.Sprintf(", driver's %g%%", m.Driver*100)
			}
			fmt.Fprintf(w, "  %-28s %14.6g %-8s min %.6g max %.6g  (%s is better, bound %s%s)\n",
				m.Name, s.Median, s.Unit, s.Min, s.Max, m.Better, boundText(m), gate)
		}
	}
	names := make([]string, 0, len(wr.PerLayer))
	for name := range wr.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, wr.PerLayer[name].Value, wr.PerLayer[name].Unit)
	}
	fmt.Fprintf(w, "  checks: attempted %d, failed %d, correct %v\n", wr.Attempted, wr.Failed, wr.Correct)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	for _, f := range wr.Flags {
		fmt.Fprintf(w, "  flag: %s\n", f)
	}
}

func boundText(m metricDef) string {
	if m.Abs {
		return fmt.Sprintf("+%g", m.Bound)
	}
	return fmt.Sprintf("%g%%", m.Bound*100)
}

// driverLine renders the workload as the one JSON object the driver reads
// from the last line of standard output: the end-to-end metrics defined on
// every workload, or (traced) every per-layer metric.
func driverLine(wr workloadResult, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if traced {
		for name, v := range wr.PerLayer {
			metrics[name] = mv{v.Value, v.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.Driver > 0 {
				metrics[m.Name] = mv{wr.EndToEnd[m.Name].Median, m.Unit}
			}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Correct, max(wr.Attempted, 1), wr.Failed, metrics})
	return string(b)
}
