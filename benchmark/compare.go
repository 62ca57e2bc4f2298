package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// simulated names the metrics that are a function of the seed alone: two
// results of one commit and one seed must agree on them to the last bit.
var simulated = []string{"tree_stress", "tree_stretch", "stream_loss_pct", "eventq.events", "overlay.msgs_total", "core.join_contacts_per_peer"}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how much worse b is than a, as a share of a (an absolute
// difference for absolute bounds); negative when b is better.
func worsening(m metricDef, a, b float64) float64 {
	d := b - a
	if m.Better == "higher" {
		d = -d
	}
	if m.Abs {
		return d
	}
	return ratio(d, a)
}

// spread is the metric's own min–max range in the units of its bound.
func spread(m metricDef, s stat) float64 {
	if m.Abs {
		return s.Max - s.Min
	}
	return ratio(s.Max-s.Min, s.Median)
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative delta, the bound and a verdict: ok, regressed (b is worse
// than a by more than the bound), or unresolved (either side's own
// min–max spread exceeds the bound, or the machine could not resolve the
// metric). It exits non-zero when anything regressed or a simulated
// metric differs under equal seeds.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b *result, w io.Writer) int {
	fmt.Fprintf(w, "a: git %s seed %d nproc %d   b: git %s seed %d nproc %d\n",
		a.Env.GitSHA, a.Env.Seed, a.Env.NumCPU, b.Env.GitSHA, b.Env.Seed, b.Env.NumCPU)
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	regressed, unresolved, differing := 0, 0, 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n== %s\n  %-22s %14s %14s %9s %8s  %s\n", wa.Name, "metric", "a median", "b median", "delta", "bound", "verdict")
		machine := map[string]bool{}
		for _, name := range append(wa.Unresolved, wb.Unresolved...) {
			machine[name] = true
		}
		for _, m := range endToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			worse := worsening(m, sa.Median, sb.Median)
			verdict := "ok"
			switch {
			case machine[m.Name]:
				verdict = "unresolved (machine)"
				unresolved++
			case spread(m, sa) > m.Bound || spread(m, sb) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread a %.3g, b %.3g)", spread(m, sa), spread(m, sb))
				unresolved++
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			delta := fmt.Sprintf("%+.2f%%", 100*ratio(sb.Median-sa.Median, sa.Median))
			if m.Abs {
				delta = fmt.Sprintf("%+.4g", sb.Median-sa.Median)
			}
			fmt.Fprintf(w, "  %-22s %14.6g %14.6g %9s %8s  %s\n", m.Name, sa.Median, sb.Median, delta, boundText(m), verdict)
		}
		if a.Env.Seed != b.Env.Seed || a.Env.Smoke != b.Env.Smoke {
			continue
		}
		for _, name := range simulated {
			va, vb, found := 0.0, 0.0, false
			if sa, ok := wa.EndToEnd[name]; ok {
				va, vb, found = sa.Median, wb.EndToEnd[name].Median, true
			} else if la, ok := wa.PerLayer[name]; ok {
				va, vb, found = la.Value, wb.PerLayer[name].Value, true
			}
			if found && va != vb {
				fmt.Fprintf(w, "  %-22s %.17g != %.17g  simulated metric differs under one seed\n", name, va, vb)
				differing++
			}
		}
	}
	fmt.Fprintf(w, "\n%d regressed, %d unresolved, %d simulated metrics differing\n", regressed, unresolved, differing)
	if regressed > 0 || differing > 0 {
		return 1
	}
	return 0
}
