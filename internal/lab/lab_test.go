package lab

import (
	"strings"
	"testing"

	"vdm/internal/geo"
	"vdm/internal/rng"
	"vdm/internal/sim"
)

func TestSelectNodesPipeline(t *testing.T) {
	m := geo.Generate(geo.DefaultSitesPerRegion, rng.New(1))
	sel := SelectNodes(m, true)
	if sel.Total == 0 || sel.AfterPing > sel.Total || sel.AfterOutPing > sel.AfterPing ||
		sel.AfterAgent > sel.AfterOutPing {
		t.Fatalf("pipeline not monotone: %+v", sel)
	}
	if len(sel.Usable) != sel.AfterAgent {
		t.Fatalf("usable %d != after-agent %d", len(sel.Usable), sel.AfterAgent)
	}
	// The paper's working pool is "around 140 nodes".
	if len(sel.Usable) < 110 || len(sel.Usable) > 170 {
		t.Fatalf("usable US pool %d, want roughly 140", len(sel.Usable))
	}
	for _, id := range sel.Usable {
		s := m.Sites[id]
		if s.Dead || s.NoPing || s.AgentErr || !s.US {
			t.Fatalf("unusable site %d passed the filter: %+v", id, s)
		}
	}
	if !strings.Contains(sel.String(), "agent ok") {
		t.Fatal("summary text broken")
	}
}

func TestSelectNodesWorldwide(t *testing.T) {
	m := geo.Generate(geo.DefaultSitesPerRegion, rng.New(2))
	us := SelectNodes(m, true)
	all := SelectNodes(m, false)
	if all.Total <= us.Total {
		t.Fatal("worldwide pool should exceed the US pool")
	}
}

func TestSampleSourceInColorado(t *testing.T) {
	m := geo.Generate(geo.DefaultSitesPerRegion, rng.New(3))
	sel := SelectNodes(m, true)
	sites, err := m.PickSites(sel.Usable, 51, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 51 {
		t.Fatalf("sampled %d sites", len(sites))
	}
	if m.Sites[sites[0]].Region != "us-mountain" {
		t.Fatalf("source region %s, want us-mountain (Colorado)", m.Sites[sites[0]].Region)
	}
	seen := map[int]bool{}
	for _, s := range sites {
		if seen[s] {
			t.Fatalf("duplicate site %d in sample", s)
		}
		seen[s] = true
	}
}

func TestSampleTooLarge(t *testing.T) {
	m := geo.Generate(geo.DefaultSitesPerRegion, rng.New(5))
	sel := SelectNodes(m, true)
	if _, err := m.PickSites(sel.Usable, 10001, 6); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

// run places cfg with Configure and runs the session.
func run(t *testing.T, cfg sim.Config) (*sim.Result, *Selection) {
	t.Helper()
	cfg, sel, err := Configure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, sel
}

func TestRunChapter5Session(t *testing.T) {
	res, sel := run(t, sim.Config{
		Seed:       7,
		Protocol:   sim.VDM,
		Underlay:   sim.Geo,
		Nodes:      40,
		DegreeMin:  4,
		DegreeMax:  4,
		ChurnPct:   10,
		GeoUSOnly:  true,
		JoinPhaseS: 300,
		DurationS:  900,
		DataRate:   2,
		Validate:   true,
	})
	if len(res.InvariantErrors) > 0 {
		t.Fatalf("invariants: %v", res.InvariantErrors)
	}
	if sel == nil || len(res.Config.GeoSites) == 0 {
		t.Fatal("selection metadata missing")
	}
	if res.StartupAvg <= 0 || res.FinalReachable < 30 {
		t.Fatalf("session looks broken: startup %v, reachable %d", res.StartupAvg, res.FinalReachable)
	}
	// Every host site passed the usability filter.
	usable := map[int]bool{}
	for _, id := range sel.Usable {
		usable[id] = true
	}
	for _, s := range res.Config.GeoSites {
		if !usable[s] {
			t.Fatalf("session used unusable site %d", s)
		}
	}
}

func TestRunDefaultPoolFitsPaperScale(t *testing.T) {
	// The paper's full setup: 100 nodes at 10% churn must fit the
	// default usable pool.
	res, _ := run(t, sim.Config{
		Seed:       8,
		Protocol:   sim.VDM,
		Underlay:   sim.Geo,
		Nodes:      100,
		DegreeMin:  4,
		DegreeMax:  4,
		ChurnPct:   10,
		GeoUSOnly:  true,
		JoinPhaseS: 200,
		DurationS:  400,
		DataRate:   1,
	})
	if res.FinalAlive < 90 {
		t.Fatalf("alive %d of 100", res.FinalAlive)
	}
}

func TestDOTOutput(t *testing.T) {
	res, _ := run(t, sim.Config{
		Seed:       11,
		Protocol:   sim.VDM,
		Underlay:   sim.Geo,
		Nodes:      15,
		DegreeMin:  4,
		DegreeMax:  4,
		GeoUSOnly:  true,
		JoinPhaseS: 200,
		DurationS:  400,
		DataRate:   1,
	})
	out := DOT(res)
	if !strings.HasPrefix(out, "digraph vdm {") || !strings.HasSuffix(out, "}\n") {
		t.Fatalf("not a digraph:\n%s", out)
	}
	edges := strings.Count(out, " -> ")
	if edges != len(res.FinalTree) {
		t.Fatalf("%d DOT edges for %d tree edges", edges, len(res.FinalTree))
	}
	if !strings.Contains(out, "fillcolor=") {
		t.Fatal("region coloring missing")
	}
}

func TestRenderTreeAndClusterStats(t *testing.T) {
	res, _ := run(t, sim.Config{
		Seed:       9,
		Protocol:   sim.VDM,
		Underlay:   sim.Geo,
		Nodes:      30,
		DegreeMin:  4,
		DegreeMax:  4,
		GeoUSOnly:  true,
		JoinPhaseS: 200,
		DurationS:  500,
		DataRate:   1,
	})
	text := RenderTree(res)
	if !strings.Contains(text, "us-") || !strings.Contains(text, "ms)") {
		t.Fatalf("render output broken:\n%s", text)
	}
	intra, inter, perRegion := ClusterStats(res)
	if intra+inter != len(res.FinalTree) {
		t.Fatalf("cluster counts %d+%d != %d edges", intra, inter, len(res.FinalTree))
	}
	if len(perRegion) == 0 {
		t.Fatal("no per-region stats")
	}
	if got := Regions(perRegion); len(got) != len(perRegion) {
		t.Fatalf("region summary %v", got)
	}
	// Same-direction placement should produce meaningful clustering.
	if intra == 0 {
		t.Fatal("no intra-region edges at all")
	}
}

func TestConfigurePassesOtherUnderlaysThrough(t *testing.T) {
	cfg, sel, err := Configure(sim.Config{Seed: 3, Nodes: 20, Underlay: sim.Router})
	if err != nil {
		t.Fatal(err)
	}
	if sel != nil || cfg.Scenario != nil || cfg.GeoModel != nil || cfg.GeoSites != nil || cfg.Nodes != 20 {
		t.Fatalf("router session was placed: selection %v, config %+v", sel, cfg)
	}
}
