// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON summary on stdout, so benchmark runs can be
// archived and diffed across PRs (see `make bench`, which writes
// BENCH_wire.json).
//
//	go test -bench=. -benchmem ./internal/wire/ | benchjson > BENCH_wire.json
//
// With -history FILE, each run also appends one self-contained JSON line
// (keyed by git SHA and timestamp) to FILE, building the longitudinal
// record BENCH_history.jsonl tracks across PRs.
//
// With -compare OLD, the run on stdin is instead checked against the
// archived summary OLD and the command fails when a benchmark regressed —
// the guard `make bench-compare` runs against BENCH_wire.json:
//
//	go test -bench=. -benchmem ./internal/wire/ | benchjson -compare BENCH_wire.json -tol 0.05
//
// A regression is a ns/op increase beyond -tol, or any increase in
// allocs/op (allocation counts are deterministic, so even +1 is a real
// change, not noise). Benchmarks are matched by name without the
// GOMAXPROCS suffix, so a baseline recorded on a 2-core machine gates a
// run on an 8-core one. Benchmarks present on only one side are reported
// but never fail the run — unless nothing matched at all, which means the
// comparison checked nothing and is itself a failure.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"time"

	"vdm/internal/benchio"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark's name without the -GOMAXPROCS suffix `go
	// test` appends; Procs is that suffix (1 when there was none).
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Summary is the file layout written to stdout.
type Summary struct {
	GeneratedAt string      `json:"generated_at"`
	GoOS        string      `json:"goos,omitempty"`
	GoArch      string      `json:"goarch,omitempty"`
	Packages    []string    `json:"packages,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

var (
	benchRe = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)
	metaRe  = regexp.MustCompile(`^(goos|goarch|pkg): (\S+)`)
	procsRe = regexp.MustCompile(`^(.+)-(\d+)$`)
)

// splitProcs separates the -GOMAXPROCS suffix from a benchmark name as
// `go test` printed it.
func splitProcs(name string) (string, int) {
	if m := procsRe.FindStringSubmatch(name); m != nil {
		n, _ := strconv.Atoi(m[2])
		return m[1], n
	}
	return name, 1
}

// parse reads `go test -bench` text.
func parse(r io.Reader) (Summary, error) {
	var sum Summary
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := metaRe.FindStringSubmatch(line); m != nil {
			switch m[1] {
			case "goos":
				sum.GoOS = m[2]
			case "goarch":
				sum.GoArch = m[2]
			case "pkg":
				sum.Packages = append(sum.Packages, m[2])
			}
			continue
		}
		m := benchRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var b Benchmark
		b.Name, b.Procs = splitProcs(m[1])
		b.Runs, _ = strconv.ParseInt(m[2], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			b.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			b.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		sum.Benchmarks = append(sum.Benchmarks, b)
	}
	return sum, sc.Err()
}

// loadSummary reads an archived summary. Files written before Procs
// existed carry the suffix inside the name; it is split off here so they
// keep working as baselines.
func loadSummary(path string) (Summary, error) {
	var s Summary
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	for i := range s.Benchmarks {
		if b := &s.Benchmarks[i]; b.Procs == 0 {
			b.Name, b.Procs = splitProcs(b.Name)
		}
	}
	return s, nil
}

// compare prints one verdict line per benchmark and returns how many
// regressed and how many were present on both sides.
func compare(w io.Writer, old, cur Summary, tol float64) (regressions, matched int) {
	oldB := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldB[b.Name] = b
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, nb := range cur.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldB[nb.Name]
		if !ok {
			fmt.Fprintf(w, "NEW   %-32s %12.1f ns/op %6d allocs/op\n", nb.Name, nb.NsPerOp, nb.AllocsPerOp)
			continue
		}
		matched++
		delta := 0.0
		if ob.NsPerOp > 0 {
			delta = (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		}
		status := "ok"
		if delta > tol {
			status = "REGRESSION(time)"
		}
		if nb.AllocsPerOp > ob.AllocsPerOp {
			status = "REGRESSION(allocs)"
		}
		if status != "ok" {
			regressions++
		}
		fmt.Fprintf(w, "%-18s %-32s %12.1f -> %12.1f ns/op (%+6.1f%%)  %5d -> %5d allocs/op\n",
			status, nb.Name, ob.NsPerOp, nb.NsPerOp, delta*100, ob.AllocsPerOp, nb.AllocsPerOp)
	}
	for _, ob := range old.Benchmarks {
		if !seen[ob.Name] {
			fmt.Fprintf(w, "GONE  %s\n", ob.Name)
		}
	}
	return regressions, matched
}

func main() {
	history := flag.String("history", "",
		"append a one-line record of this run (keyed by git SHA and timestamp) to this JSONL file")
	comparePath := flag.String("compare", "", "check the run on stdin against this archived summary instead of printing JSON")
	tol := flag.Float64("tol", 0.10, "with -compare: allowed fractional ns/op increase before failing")
	flag.Parse()

	sum, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	sum.GeneratedAt = time.Now().UTC().Format(time.RFC3339)

	if *comparePath != "" {
		old, err := loadSummary(*comparePath)
		if err != nil {
			fatal(err)
		}
		regressions, matched := compare(os.Stdout, old, sum, *tol)
		if matched == 0 {
			fatal(fmt.Errorf("no benchmark on stdin matches one in %s; nothing was compared", *comparePath))
		}
		if regressions > 0 {
			fatal(fmt.Errorf("%d regression(s) beyond %.0f%% tolerance", regressions, *tol*100))
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fatal(err)
	}
	if *history != "" {
		rec := struct {
			Kind   string `json:"kind"`
			GitSHA string `json:"git_sha"`
			Summary
		}{Kind: "microbench", GitSHA: benchio.GitSHA(), Summary: sum}
		if err := benchio.AppendHistory(*history, rec); err != nil {
			fatal(fmt.Errorf("history: %w", err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
