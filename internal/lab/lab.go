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
	Model *geo.Model
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
	sel := &Selection{Model: m}
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

// Sample draws n+1 host sites from the usable pool: slot 0 is the source,
// preferring a us-mountain (Colorado) site as the paper does; the n peers
// are a random subset of the rest. An error is returned when the pool is
// too small.
func (s *Selection) Sample(n int, rnd *rng.Stream) ([]int, error) {
	if len(s.Usable) < n+1 {
		return nil, fmt.Errorf("lab: need %d sites, usable pool has %d", n+1, len(s.Usable))
	}
	pool := append([]int(nil), s.Usable...)
	srcIdx := 0
	for i, id := range pool {
		if s.Model.Sites[id].Region == "us-mountain" {
			srcIdx = i
			break
		}
	}
	pool[0], pool[srcIdx] = pool[srcIdx], pool[0]
	rest := pool[1:]
	rnd.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return pool[:n+1], nil
}

// Config describes a chapter-5 emulation run. Sizes and times have no
// defaults; the paper's setup is 100 nodes of degree 4, a 2000 s join
// phase in a 5000 s session, and 10 chunks/s.
type Config struct {
	Seed      int64
	Protocol  sim.ProtocolKind
	Nodes     int     // peers sampled from the usable pool
	Degree    int     // fixed node degree
	ChurnPct  float64 // churn per 400 s interval during the churn phase
	Refine    float64 // VDM refinement period, 0 = off
	Foster    bool    // VDM quick-start
	ReconnSrc bool    // ablation: reconnect at the source, not grandparent
	USOnly    bool    // restrict to US sites (the paper's pool)
	Duration  float64 // session length (s)
	JoinPhase float64 // join phase length (s); churn runs after it
	DataRate  float64 // chunks/s
	MST       bool
	Validate  bool
}

// Result couples the session result with the selection pipeline summary.
// The sampled host sites are Config.GeoSites.
type Result struct {
	*sim.Result
	Selection *Selection
}

// Run performs one full chapter-5 experiment: Configure, then run the
// session.
func Run(cfg Config) (*Result, error) {
	sc, sel, err := Configure(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sc)
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Selection: sel}, nil
}

// Configure prepares a chapter-5 experiment without running it: generate
// the synthetic PlanetLab, filter usable nodes, build the churn scenario
// and sample the experiment pool. It returns the session Run would execute
// and the selection behind it.
func Configure(cfg Config) (sim.Config, *Selection, error) {
	model := geo.Generate(geo.DefaultSitesPerRegion, rng.Derive(cfg.Seed, "geo"))
	sel := SelectNodes(model, cfg.USOnly)

	// Build the churn scenario up front so the site sample matches its
	// slot pool exactly (churn replacements reuse pool machines, as on
	// the real testbed).
	scn := scenario.Churn(scenario.ChurnConfig{
		Nodes:      cfg.Nodes,
		ChurnPct:   cfg.ChurnPct,
		JoinPhaseS: cfg.JoinPhase,
		IntervalS:  400,
		SettleS:    100,
		SpreadS:    50,
		DurationS:  cfg.Duration,
	}, rng.Derive(cfg.Seed, "scenario"))
	sites, err := sel.Sample(scn.PoolSize-1, rng.Derive(cfg.Seed, "sites"))
	if err != nil {
		return sim.Config{}, nil, err
	}
	return sim.Config{
		Scenario:          scn,
		Seed:              cfg.Seed,
		Protocol:          cfg.Protocol,
		Nodes:             cfg.Nodes,
		DegreeMin:         cfg.Degree,
		DegreeMax:         cfg.Degree,
		ChurnPct:          cfg.ChurnPct,
		VDMRefinePeriodS:  cfg.Refine,
		VDMFosterJoin:     cfg.Foster,
		VDMReconnectAtSrc: cfg.ReconnSrc,
		HMTPRefinePeriodS: 30,
		JoinPhaseS:        cfg.JoinPhase,
		DurationS:         cfg.Duration,
		DataRate:          cfg.DataRate,
		Underlay:          sim.Geo,
		GeoModel:          model,
		GeoSites:          sites,
		ComputeMST:        cfg.MST,
		Validate:          cfg.Validate,
	}, sel, nil
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
