// Package lab is the chapter-5 front end: it reproduces the PlanetLab
// methodology around the protocol — the three-stage node-selection
// pipeline of figure 5.2 (drop sites that do not answer pings, sites that
// cannot ping out, and sites where the agent cannot be started), the
// source placement in Colorado, the per-experiment node sampling from the
// working pool (~140 usable US sites, 100 sampled per run), and the
// sample-tree rendering of figures 5.5/5.6.
package lab

import (
	"fmt"
	"sort"
	"strings"

	"vdm/internal/geo"
	"vdm/internal/rng"
	"vdm/internal/scenario"
	"vdm/internal/sim"
)

// Selection is the outcome of the figure-5.2 filtering pipeline.
type Selection struct {
	// Usable is the working pool after all three filters.
	Usable []int
	// Stage counts, for reporting the pipeline the way the paper does.
	Total        int
	AfterPing    int // responded to ping
	AfterOutPing int // also able to ping out
	AfterAgent   int // also ran the agent (declared itself to the source)
}

// SelectNodes runs the three-stage filter over the model's sites,
// optionally restricted to US sites (the paper's chapter-5 pool).
func SelectNodes(m *geo.Model, usOnly bool) *Selection {
	sel := &Selection{}
	for _, s := range m.Sites {
		if usOnly && !s.US {
			continue
		}
		sel.Total++
		if s.Dead {
			continue
		}
		sel.AfterPing++
		if s.NoPing {
			continue
		}
		sel.AfterOutPing++
		if s.AgentErr {
			continue
		}
		sel.AfterAgent++
		sel.Usable = append(sel.Usable, s.ID)
	}
	return sel
}

// String renders the pipeline summary.
func (s *Selection) String() string {
	return fmt.Sprintf("sites %d -> responding %d -> ping out %d -> agent ok %d",
		s.Total, s.AfterPing, s.AfterOutPing, s.AfterAgent)
}

// Configure places a chapter-5 session: it generates the synthetic
// PlanetLab, filters the usable nodes (the US pool when cfg.GeoUSOnly),
// builds the churn scenario, and hosts its slots on sites sampled from the
// pool with the Colorado source. It returns the session to run and the
// selection behind it. A session on any other underlay needs no placement
// and passes through unchanged, with a nil selection.
func Configure(cfg sim.Config) (sim.Config, *Selection, error) {
	if cfg.Underlay != sim.Geo {
		return cfg, nil, nil
	}
	model := geo.Generate(geo.DefaultSitesPerRegion, rng.Derive(cfg.Seed, "geo"))
	sel := SelectNodes(model, cfg.GeoUSOnly)

	// Build the churn scenario up front so the site sample matches its
	// slot pool exactly (churn replacements reuse pool machines, as on
	// the real testbed).
	scn := scenario.Churn(scenario.ChurnConfig{
		Nodes:      cfg.Nodes,
		ChurnPct:   cfg.ChurnPct,
		JoinPhaseS: cfg.JoinPhaseS,
		IntervalS:  400,
		SettleS:    100,
		SpreadS:    50,
		DurationS:  cfg.DurationS,
	}, rng.Derive(cfg.Seed, "scenario"))
	sites, err := model.PickSites(sel.Usable, scn.PoolSize, cfg.Seed)
	if err != nil {
		return sim.Config{}, nil, err
	}
	cfg.Scenario, cfg.GeoModel, cfg.GeoSites = scn, model, sites
	return cfg, sel, nil
}

// RenderTree draws the final overlay tree the way figures 5.5/5.6 present
// sample trees: indentation by depth, site names, per-edge RTT.
func RenderTree(res *sim.Result) string {
	var b strings.Builder
	for _, e := range res.FinalTree {
		fmt.Fprintf(&b, "%s%s -> %s  (%.1f ms)\n",
			strings.Repeat("  ", e.Depth-1), e.ParentLabel, e.ChildLabel, e.RTTms)
	}
	return b.String()
}

// DOT renders the final overlay tree as a Graphviz digraph, colored by
// region — the publishable form of the sample trees in figures 5.5/5.6.
func DOT(res *sim.Result) string {
	var b strings.Builder
	b.WriteString("digraph vdm {\n  rankdir=TB;\n  node [shape=box, style=filled, fontsize=10];\n")
	colors := map[string]string{}
	palette := []string{"lightblue", "palegreen", "lightsalmon", "khaki", "plum", "lightgrey", "aquamarine", "mistyrose"}
	colorOf := func(region string) string {
		if c, ok := colors[region]; ok {
			return c
		}
		c := palette[len(colors)%len(palette)]
		colors[region] = c
		return c
	}
	seen := map[string]bool{}
	declare := func(label string) {
		if seen[label] {
			return
		}
		seen[label] = true
		fmt.Fprintf(&b, "  %q [fillcolor=%s];\n", label, colorOf(regionOf(label)))
	}
	for _, e := range res.FinalTree {
		declare(e.ParentLabel)
		declare(e.ChildLabel)
		fmt.Fprintf(&b, "  %q -> %q [label=\"%.0fms\", fontsize=8];\n", e.ParentLabel, e.ChildLabel, e.RTTms)
	}
	b.WriteString("}\n")
	return b.String()
}

// ClusterStats counts intra-region versus cross-region overlay edges — the
// geographic-clustering observation of the sample trees ("there is a clear
// clustering in continents").
func ClusterStats(res *sim.Result) (intra, inter int, perRegion map[string]int) {
	perRegion = make(map[string]int)
	for _, e := range res.FinalTree {
		cr := regionOf(e.ChildLabel)
		pr := regionOf(e.ParentLabel)
		perRegion[cr]++
		if cr == pr {
			intra++
		} else {
			inter++
		}
	}
	return intra, inter, perRegion
}

// Regions returns the per-region edge counts sorted by region name, for
// stable reporting.
func Regions(perRegion map[string]int) []string {
	var names []string
	for r := range perRegion {
		names = append(names, r)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, r := range names {
		out[i] = fmt.Sprintf("%s:%d", r, perRegion[r])
	}
	return out
}

func regionOf(label string) string {
	if i := strings.LastIndex(label, "-"); i >= 0 {
		return label[:i]
	}
	return label
}
