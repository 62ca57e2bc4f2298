package topology

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vdm/internal/rng"
)

func TestAddLinkRejectsSelfLoopAndDuplicates(t *testing.T) {
	g := NewGraph(3)
	if _, err := g.AddLink(1, 1, 5); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddLink(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(1, 0, 5); err == nil {
		t.Fatal("duplicate (reversed) link accepted")
	}
	if _, err := g.AddLink(0, 7, 5); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	if g.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d", g.NumLinks())
	}
}

func TestConnected(t *testing.T) {
	g := NewGraph(4)
	mustLink(t, g, 0, 1, 1)
	mustLink(t, g, 1, 2, 1)
	if g.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
	mustLink(t, g, 2, 3, 1)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func mustLink(t *testing.T, g *Graph, a, b RouterID, d float64) LinkID {
	t.Helper()
	id, err := g.AddLink(a, b, d)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestDijkstraSmallKnownGraph(t *testing.T) {
	// 0 --1-- 1 --1-- 2, plus a 0--2 direct link of cost 5: shortest 0→2
	// goes through 1.
	g := NewGraph(3)
	l01 := mustLink(t, g, 0, 1, 1)
	l12 := mustLink(t, g, 1, 2, 1)
	mustLink(t, g, 0, 2, 5)
	spt := g.ShortestPaths(0)
	if spt.DistMS[2] != 2 {
		t.Fatalf("dist 0→2 = %v, want 2", spt.DistMS[2])
	}
	path := spt.PathLinks(2)
	if len(path) != 2 || path[0] != l12 || path[1] != l01 {
		t.Fatalf("path 0→2 = %v, want [%d %d]", path, l12, l01)
	}
	if spt.PathLinks(0) != nil {
		t.Fatal("path to self should be empty")
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph(3)
	mustLink(t, g, 0, 1, 1)
	spt := g.ShortestPaths(0)
	if !math.IsInf(spt.DistMS[2], 1) {
		t.Fatal("unreachable node has finite distance")
	}
	if spt.PathLinks(2) != nil {
		t.Fatal("unreachable node has a path")
	}
}

// floydWarshall is the brute-force oracle for the property test.
func floydWarshall(g *Graph) [][]float64 {
	n := g.NumRouters()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, l := range g.Links() {
		if l.DelayMS < d[l.A][l.B] {
			d[l.A][l.B] = l.DelayMS
			d[l.B][l.A] = l.DelayMS
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func randomGraph(seed int64, n int) *Graph {
	rnd := rng.New(seed)
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		_, _ = g.AddLink(RouterID(i), RouterID(rnd.Intn(i)), rnd.Uniform(1, 20))
	}
	extra := rnd.Intn(n)
	for e := 0; e < extra; e++ {
		a, b := RouterID(rnd.Intn(n)), RouterID(rnd.Intn(n))
		if a != b && !g.HasEdge(a, b) {
			_, _ = g.AddLink(a, b, rnd.Uniform(1, 20))
		}
	}
	return g
}

// Property: Dijkstra distances match Floyd-Warshall on random graphs, and
// PathLinks reconstructs a valid path whose delays sum to the distance.
func TestPropertyDijkstraMatchesBruteForce(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%12) + 2
		g := randomGraph(seed, n)
		oracle := floydWarshall(g)
		for src := 0; src < n; src++ {
			spt := g.ShortestPaths(RouterID(src))
			for dst := 0; dst < n; dst++ {
				if math.Abs(spt.DistMS[dst]-oracle[src][dst]) > 1e-9 {
					return false
				}
				// Path validity: consecutive links share routers and
				// delays sum to the distance.
				if dst == src {
					continue
				}
				sum, cur := 0.0, RouterID(dst)
				for _, lid := range spt.PathLinks(RouterID(dst)) {
					l := g.Link(lid)
					sum += l.DelayMS
					switch cur {
					case l.A:
						cur = l.B
					case l.B:
						cur = l.A
					default:
						return false
					}
				}
				if cur != RouterID(src) || math.Abs(sum-spt.DistMS[dst]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateTransitStubStructure(t *testing.T) {
	cfg := DefaultTransitStub()
	ts, err := GenerateTransitStub(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	wantRouters := cfg.TransitDomains * cfg.TransitPerDom * (1 + cfg.StubsPerTransit*cfg.StubSize)
	if got := ts.Graph.NumRouters(); got != wantRouters {
		t.Fatalf("routers = %d, want %d", got, wantRouters)
	}
	if len(ts.TransitIDs) != cfg.TransitDomains*cfg.TransitPerDom {
		t.Fatalf("transit routers = %d", len(ts.TransitIDs))
	}
	if len(ts.TransitIDs)+len(ts.StubIDs) != wantRouters {
		t.Fatal("transit + stub counts do not cover the graph")
	}
	if !ts.Graph.Connected() {
		t.Fatal("generated topology disconnected")
	}
	stub := map[RouterID]bool{}
	for _, r := range ts.StubIDs {
		stub[r] = true
	}
	for _, r := range ts.TransitIDs {
		if stub[r] {
			t.Fatalf("transit router %d also listed as a stub router", r)
		}
	}
}

func TestGenerateTransitStubDeterministic(t *testing.T) {
	a, err := GenerateTransitStub(DefaultTransitStub(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTransitStub(DefaultTransitStub(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumLinks() != b.Graph.NumLinks() {
		t.Fatal("same seed produced different link counts")
	}
	for i, l := range a.Graph.Links() {
		m := b.Graph.Links()[i]
		if l != m {
			t.Fatalf("link %d differs: %+v vs %+v", i, l, m)
		}
	}
}

func TestScaledTransitStubReachesMinimum(t *testing.T) {
	for _, minR := range []int{100, 784, 2000, 5000} {
		cfg := ScaledTransitStub(minR)
		if cfg.routerCount() < minR {
			t.Fatalf("ScaledTransitStub(%d) yields %d routers", minR, cfg.routerCount())
		}
	}
}

func TestAttachHostsLandOnStubs(t *testing.T) {
	ts, err := GenerateTransitStub(DefaultTransitStub(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	hosts := ts.AttachHosts(500, rng.New(4))
	if len(hosts) != 500 {
		t.Fatalf("attached %d hosts", len(hosts))
	}
	for _, r := range hosts {
		if slices.Contains(ts.TransitIDs, r) {
			t.Fatalf("host attached to transit router %d", r)
		}
	}
}

func TestAssignLinkLossRange(t *testing.T) {
	ts, err := GenerateTransitStub(DefaultTransitStub(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ts.AssignLinkLoss(0.02, rng.New(5))
	nonZero := 0
	for _, l := range ts.Graph.Links() {
		if l.LossRate < 0 || l.LossRate > 0.02 {
			t.Fatalf("loss %v outside [0, 0.02]", l.LossRate)
		}
		if l.LossRate > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("no link received loss")
	}
}

func TestLinkDelayRanges(t *testing.T) {
	cfg := DefaultTransitStub()
	ts, err := GenerateTransitStub(cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ts.Graph.Links() {
		lo, hi := cfg.StubDelayMS[0], cfg.TransitDelayMS[1]
		if l.DelayMS < lo || l.DelayMS > hi {
			t.Fatalf("link delay %v outside [%v, %v]", l.DelayMS, lo, hi)
		}
	}
}

func TestInvalidTransitStubConfig(t *testing.T) {
	_, err := GenerateTransitStub(TransitStubConfig{}, rng.New(1))
	if err == nil {
		t.Fatal("zero config accepted")
	}
}

// refSPT is the row layout ShortestPaths had before it was halved: the
// predecessor link and the predecessor router side by side. The search is
// ShortestPaths' own (same heap, same strict relaxation), so among
// equal-cost paths both pick the same one.
type refSPT struct {
	dist       []float64
	prevLink   []LinkID
	prevRouter []RouterID
}

func refShortestPaths(g *Graph, root RouterID) *refSPT {
	n := g.NumRouters()
	t := &refSPT{make([]float64, n), make([]LinkID, n), make([]RouterID, n)}
	for i := range t.dist {
		t.dist[i], t.prevLink[i], t.prevRouter[i] = math.Inf(1), -1, -1
	}
	t.dist[root] = 0
	pq := &distHeap{}
	pq.push(distItem{r: root, d: 0})
	done := make([]bool, n)
	for pq.len() > 0 {
		it := pq.pop()
		if done[it.r] {
			continue
		}
		done[it.r] = true
		for _, he := range g.adj[it.r] {
			if nd := it.d + g.links[he.link].DelayMS; nd < t.dist[he.to] {
				t.dist[he.to], t.prevLink[he.to], t.prevRouter[he.to] = nd, he.link, it.r
				pq.push(distItem{r: he.to, d: nd})
			}
		}
	}
	return t
}

// TestSPTRowsMatchTwoArrayReference: dropping the predecessor router from
// the row (it is the other end of the predecessor link) must not change a
// path. Checked on generated transit-stub graphs extended by an island the
// root cannot reach, for every destination including the root itself.
func TestSPTRowsMatchTwoArrayReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ts, err := GenerateTransitStub(DefaultTransitStub(), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		n := ts.Graph.NumRouters()
		g := NewGraph(n + 3) // routers n, n+1 (linked) and n+2 are an island
		for _, l := range ts.Graph.Links() {
			mustLink(t, g, l.A, l.B, l.DelayMS)
		}
		mustLink(t, g, RouterID(n), RouterID(n+1), 1)
		for _, root := range []RouterID{0, RouterID(n / 2), RouterID(n - 1), RouterID(n)} {
			got, want := g.ShortestPaths(root), refShortestPaths(g, root)
			for dst := RouterID(0); int(dst) < g.NumRouters(); dst++ {
				var links []LinkID
				hops := -1
				if !math.IsInf(want.dist[dst], 1) {
					hops = 0
					for r := dst; r != root; r = want.prevRouter[r] {
						links = append(links, want.prevLink[r])
						hops++
					}
				}
				if p := got.PathLinks(dst); !slices.Equal(p, links) {
					t.Fatalf("seed %d root %d dst %d: PathLinks %v, reference %v", seed, root, dst, p, links)
				}
				if (dst == root || hops < 0) && got.PathLinks(dst) != nil {
					t.Fatalf("seed %d root %d dst %d: want a nil path", seed, root, dst)
				}
			}
		}
	}
}
