package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func sorted(xs []string) []string {
	sort.Strings(xs)
	return xs
}

// TestSmoke runs every workload at toy size through the one command and
// checks that each named metric is emitted, finite and carries a unit, and
// that the emitted workload and metric names are exactly BENCHMARK.json's.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the benchmark's is %d", spec.RunSeconds, runSeconds)
	}

	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-outdir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
		t.Errorf("no span trace written: %v", err)
	}

	// The contract file against spec.go.
	var wantGated, wantLayer []string
	defs := map[string]metricDef{}
	for _, m := range endToEnd {
		defs[m.Name] = m
		if m.Driver > 0 {
			wantGated = append(wantGated, m.Name)
		} else {
			wantLayer = append(wantLayer, m.Name)
		}
	}
	for _, m := range perLayer {
		defs[m.Name] = m
		wantLayer = append(wantLayer, m.Name)
	}
	var gotGated, gotLayer []string
	for _, m := range spec.EndToEnd {
		gotGated = append(gotGated, m.Name)
		if d := defs[m.Name]; d.Unit != m.Unit || d.Better != m.Better || d.Driver != m.Bound {
			t.Errorf("BENCHMARK.json end_to_end %s = %+v, spec.go has %+v", m.Name, m, d)
		}
	}
	for _, m := range spec.PerLayer {
		gotLayer = append(gotLayer, m.Name)
		if d := defs[m.Name]; d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("BENCHMARK.json per_layer %s = %+v, spec.go has %+v", m.Name, m, d)
		}
	}
	if !reflect.DeepEqual(sorted(gotGated), sorted(wantGated)) {
		t.Errorf("BENCHMARK.json end_to_end names %v, spec.go gives %v", gotGated, wantGated)
	}
	if !reflect.DeepEqual(sorted(gotLayer), sorted(wantLayer)) {
		t.Errorf("BENCHMARK.json per_layer names %v, spec.go gives %v", gotLayer, wantLayer)
	}

	// The emitted result against both.
	if len(res.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads emitted, BENCHMARK.json names %d", len(res.Workloads), len(spec.Workloads))
	}
	finite := func(where, name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %v is not finite", where, name, v)
		}
		if unit == "" {
			t.Errorf("%s: %s carries no unit", where, name)
		}
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("%s: %s is not printed by name", where, name)
		}
	}
	for i, wr := range res.Workloads {
		if wr.Name != spec.Workloads[i].Name || wr.Why != spec.Workloads[i].Why {
			t.Errorf("workload %d is %q (%q), BENCHMARK.json has %q (%q)", i, wr.Name, wr.Why, spec.Workloads[i].Name, spec.Workloads[i].Why)
		}
		if !wr.Correct || wr.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d problems=%v", wr.Name, wr.Correct, wr.Failed, wr.Problems)
		}
		p := workloads(true)[i].Plane
		for _, m := range endToEnd {
			s, ok := wr.EndToEnd[m.Name]
			if on := (p == planeSim && m.Sim) || (p == planeLive && m.Live); ok != on {
				t.Errorf("%s: end-to-end %s emitted=%v, defined on this plane=%v", wr.Name, m.Name, ok, on)
			}
			if ok {
				finite(wr.Name, m.Name, s.Unit, s.Median)
				if m.Driver > 0 && s.Median <= 0 {
					t.Errorf("%s: %s = %v, a gated metric must never be 0", wr.Name, m.Name, s.Median)
				}
			}
		}
		for _, m := range perLayer {
			v, ok := wr.PerLayer[m.Name]
			if !ok {
				t.Errorf("%s: per-layer %s not emitted", wr.Name, m.Name)
				continue
			}
			finite(wr.Name, m.Name, v.Unit, v.Value)
		}
		if len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, spec.go names %d", wr.Name, len(wr.PerLayer), len(perLayer))
		}

		// The line the driver reads carries exactly the contract's names.
		var line struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(driverLine(wr, false)), &line); err != nil {
			t.Fatal(err)
		}
		var names []string
		for name := range line.Metrics {
			names = append(names, name)
		}
		if !reflect.DeepEqual(sorted(names), sorted(gotGated)) || line.Attempted < 1 || !line.Correct {
			t.Errorf("%s: driver line %+v does not carry BENCHMARK.json's end_to_end names", wr.Name, line)
		}
	}

	// The traced form of the driver's invocation carries per_layer's names.
	stdout.Reset()
	if code := run([]string{"-smoke", "-workload", "sim-steady-stream", "-trace", "1", "-outdir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("traced single-workload run exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var traced struct{ Metrics map[string]json.RawMessage }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &traced); err != nil {
		t.Fatalf("last line of a single-workload run is not the result object: %v", err)
	}
	var tracedNames []string
	for name := range traced.Metrics {
		tracedNames = append(tracedNames, name)
	}
	if !reflect.DeepEqual(sorted(tracedNames), sorted(gotLayer)) {
		t.Errorf("traced driver line carries %v, BENCHMARK.json per_layer names %v", tracedNames, gotLayer)
	}

	// A result agrees with itself; a slower copy of it regresses.
	var cmp bytes.Buffer
	if code := compareResults(res, res, &cmp); code != 0 {
		t.Errorf("a result compared with itself exits %d:\n%s", code, cmp.String())
	}
	slow := *res
	slow.Workloads = append([]workloadResult(nil), res.Workloads...)
	e2e := map[string]stat{}
	for name, s := range slow.Workloads[0].EndToEnd {
		e2e[name] = s
	}
	w := e2e["wall_s"]
	w.Median, w.Min, w.Max = w.Median*2, w.Min*2, w.Max*2
	e2e["wall_s"] = w
	slow.Workloads[0].EndToEnd = e2e
	cmp.Reset()
	if code := compareResults(res, &slow, &cmp); code != 1 || !strings.Contains(cmp.String(), "regressed") {
		t.Errorf("doubling wall_s exits %d:\n%s", code, cmp.String())
	}
}
