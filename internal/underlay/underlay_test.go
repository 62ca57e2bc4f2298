package underlay

import (
	"math"
	"testing"

	"vdm/internal/geo"
	"vdm/internal/rng"
	"vdm/internal/topology"
)

func routerFixture(t *testing.T, hosts int) (*RouterUnderlay, *topology.TransitStub) {
	t.Helper()
	ts, err := topology.GenerateTransitStub(topology.DefaultTransitStub(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	attach := ts.AttachHosts(hosts, rng.New(3))
	return NewRouter(ts.Graph, attach), ts
}

func TestRouterRTTSymmetricPositive(t *testing.T) {
	u, _ := routerFixture(t, 30)
	for i := 0; i < 30; i += 3 {
		for j := 0; j < 30; j += 5 {
			a, b := u.BaseRTT(i, j), u.BaseRTT(j, i)
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("asymmetric RTT %v vs %v", a, b)
			}
			if i == j && a != 0 {
				t.Fatal("self RTT not zero")
			}
			if i != j && a <= 0 {
				t.Fatalf("RTT %v not positive", a)
			}
		}
	}
}

func TestRouterRTTIsDeterministic(t *testing.T) {
	u, _ := routerFixture(t, 10)
	if u.RTT(1, 2) != u.BaseRTT(1, 2) {
		t.Fatal("router underlay should be jitter-free by default")
	}
}

func TestRouterKeyedJitter(t *testing.T) {
	u, _ := routerFixture(t, 10)
	u.WithKeyedJitter(9, 0.1)
	base := u.BaseRTT(1, 2)
	sum, n := 0.0, 400
	varied := false
	for i := 0; i < n; i++ {
		v := u.RTT(1, 2)
		if v <= 0 {
			t.Fatalf("jittered RTT %v", v)
		}
		if v != base {
			varied = true
		}
		sum += v
	}
	if !varied {
		t.Fatal("jitter configured but RTT constant")
	}
	if mean := sum / float64(n); math.Abs(mean-base)/base > 0.1 {
		t.Fatalf("jitter not centred: mean %.2f vs base %.2f", mean, base)
	}
	// BaseRTT stays noise-free for metric collectors.
	if u.BaseRTT(1, 2) != base {
		t.Fatal("BaseRTT affected by jitter")
	}
	// Deliveries are jittered too (probes time real messages).
	ow := u.oneWay(1, 2)
	variedOW := false
	for draw := uint64(0); draw < 100; draw++ {
		if u.OneWayDelayMSKeyed(1, 2, draw) != ow {
			variedOW = true
			break
		}
	}
	if !variedOW {
		t.Fatal("one-way delay constant despite jitter")
	}
}

func TestRouterShortestPathTriangleInequality(t *testing.T) {
	u, _ := routerFixture(t, 20)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			for k := 0; k < 20; k += 4 {
				// Shortest-path metric over the same access model obeys
				// the triangle inequality up to the double-counted access
				// hops of the intermediate node.
				slack := 4 * hostAccessMS
				if u.BaseRTT(i, j) > u.BaseRTT(i, k)+u.BaseRTT(k, j)+slack+1e-9 {
					t.Fatalf("triangle violated: d(%d,%d)=%v > %v + %v",
						i, j, u.BaseRTT(i, j), u.BaseRTT(i, k), u.BaseRTT(k, j))
				}
			}
		}
	}
}

func TestRouterPathLinksConsistentWithRTT(t *testing.T) {
	u, ts := routerFixture(t, 25)
	for i := 0; i < 25; i++ {
		for j := i + 1; j < 25; j++ {
			links := u.PathLinks(i, j)
			sum := 0.0
			for _, lid := range links {
				sum += ts.Graph.Link(lid).DelayMS
			}
			wantOneWay := u.BaseRTT(i, j)/2 - 2*hostAccessMS
			if u.AttachmentRouter(i) == u.AttachmentRouter(j) {
				if links != nil {
					t.Fatal("same-router hosts should have no path links")
				}
				continue
			}
			if math.Abs(sum-wantOneWay) > 1e-9 {
				t.Fatalf("path delay %v, one-way RTT %v", sum, wantOneWay)
			}
		}
	}
}

func TestRouterLossComposition(t *testing.T) {
	ts, err := topology.GenerateTransitStub(topology.DefaultTransitStub(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ts.AssignLinkLoss(0.02, rng.New(8))
	attach := ts.AttachHosts(20, rng.New(9))
	u := NewRouter(ts.Graph, attach)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			p := u.LossRate(i, j)
			if p < 0 || p >= 1 {
				t.Fatalf("loss %v out of range", p)
			}
			if i == j && p != 0 {
				t.Fatal("self loss not zero")
			}
			// Compose by hand from the path.
			survive := 1.0
			for _, lid := range u.PathLinks(i, j) {
				survive *= 1 - ts.Graph.Link(lid).LossRate
			}
			if math.Abs(p-(1-survive)) > 1e-9 {
				t.Fatalf("loss %v does not match path composition %v", p, 1-survive)
			}
		}
	}
}

func TestRouterLossZeroWithoutAssignment(t *testing.T) {
	u, _ := routerFixture(t, 10)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if u.LossRate(i, j) != 0 {
				t.Fatal("default underlay should be loss-free")
			}
		}
	}
}

func geoFixture(t *testing.T) *GeoUnderlay {
	t.Helper()
	m := geo.Generate(geo.DefaultSitesPerRegion, rng.New(4))
	sites := m.USSites()[:40]
	return NewGeoKeyed(m, sites, 5)
}

func TestGeoRTTJittersAroundBase(t *testing.T) {
	u := geoFixture(t)
	base := u.BaseRTT(1, 20)
	sum, n := 0.0, 500
	for i := 0; i < n; i++ {
		v := u.RTT(1, 20)
		if v <= 0 {
			t.Fatalf("RTT %v", v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-base)/base > 0.1 {
		t.Fatalf("jittered mean %.2f too far from base %.2f", mean, base)
	}
}

func TestGeoNoRouterModel(t *testing.T) {
	u := geoFixture(t)
	if u.PathLinks(0, 1) != nil {
		t.Fatal("geo underlay must have no router model")
	}
}

func TestGeoSiteAccessor(t *testing.T) {
	u := geoFixture(t)
	if !u.Site(0).US {
		t.Fatal("US-only host pool returned non-US site")
	}
	if len(u.sites) != 40 {
		t.Fatalf("%d hosts", len(u.sites))
	}
}

func TestStaticUnderlay(t *testing.T) {
	rtt := [][]float64{
		{0, 10, 20},
		{10, 0, 30},
		{20, 30, 0},
	}
	s := NewStatic(rtt)
	if len(s.RTTms) != 3 || s.BaseRTT(0, 2) != 20 || s.RTT(1, 2) != 30 {
		t.Fatal("static matrix not honoured")
	}
	if s.OneWayDelayMS(0, 1) != 5 {
		t.Fatalf("one-way = %v", s.OneWayDelayMS(0, 1))
	}
	if s.LossRate(0, 1) != 0 {
		t.Fatal("loss without matrix should be 0")
	}
	s.LossP = [][]float64{{0, 0.1, 0}, {0.1, 0, 0}, {0, 0, 0}}
	if s.LossRate(0, 1) != 0.1 {
		t.Fatal("loss matrix not honoured")
	}
	s.Jitter = func(a, b int, base float64) float64 { return base * 2 }
	if s.RTT(0, 1) != 20 || s.BaseRTT(0, 1) != 10 {
		t.Fatal("jitter hook not applied to RTT only")
	}
}
