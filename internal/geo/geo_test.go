package geo

import (
	"testing"

	"vdm/internal/rng"
)

func testModel(t *testing.T, seed int64) *Model {
	t.Helper()
	return Generate(DefaultSitesPerRegion, rng.New(seed))
}

func TestGenerateSiteCounts(t *testing.T) {
	m := testModel(t, 1)
	want := DefaultSitesPerRegion * len(DefaultRegions())
	if m.NumSites() != want {
		t.Fatalf("sites = %d, want %d", m.NumSites(), want)
	}
	us := m.USSites()
	wantUS := DefaultSitesPerRegion * 5 // five US regions
	if len(us) != wantUS {
		t.Fatalf("US sites = %d, want %d", len(us), wantUS)
	}
	for _, id := range us {
		if !m.Sites[id].US {
			t.Fatalf("site %d in US pool but not US-based", id)
		}
	}
}

func TestGreatCircleKnownDistance(t *testing.T) {
	// San Francisco to New York is about 4130 km.
	km := GreatCircleKM(37.77, -122.42, 40.71, -74.01)
	if km < 4000 || km < 0 || km > 4300 {
		t.Fatalf("SF-NYC great-circle = %.0f km", km)
	}
	if GreatCircleKM(10, 20, 10, 20) != 0 {
		t.Fatal("distance to self not zero")
	}
}

func TestBaseRTTSymmetricAndPositive(t *testing.T) {
	m := testModel(t, 2)
	n := m.NumSites()
	for i := 0; i < n; i += 7 {
		for j := 0; j < n; j += 11 {
			a, b := m.BaseRTT(i, j), m.BaseRTT(j, i)
			if a != b {
				t.Fatalf("RTT asymmetric: %v vs %v", a, b)
			}
			if i == j && a != 0 {
				t.Fatal("self RTT not zero")
			}
			if i != j && a < 0.5 {
				t.Fatalf("RTT %v below floor", a)
			}
		}
	}
}

func TestGeographicClustering(t *testing.T) {
	m := testModel(t, 3)
	// Average intra-us-west RTT must be far below us-west↔asia-east.
	var west, asia []int
	for _, s := range m.Sites {
		switch s.Region {
		case "us-west":
			west = append(west, s.ID)
		case "asia-east":
			asia = append(asia, s.ID)
		}
	}
	intra, inter := 0.0, 0.0
	ni, nx := 0, 0
	for i := 0; i < len(west); i++ {
		for j := i + 1; j < len(west); j++ {
			intra += m.BaseRTT(west[i], west[j])
			ni++
		}
		for _, a := range asia {
			inter += m.BaseRTT(west[i], a)
			nx++
		}
	}
	intra /= float64(ni)
	inter /= float64(nx)
	if inter < 3*intra {
		t.Fatalf("no clustering: intra %.1f ms vs trans-pacific %.1f ms", intra, inter)
	}
}

func TestLossMatrixProperties(t *testing.T) {
	m := Generate(DefaultSitesPerRegion, rng.New(6))
	lossy, total := 0, 0
	n := m.NumSites()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := m.Loss(i, j)
			if p != m.Loss(j, i) {
				t.Fatal("loss asymmetric")
			}
			if p < 0 || p > lossMax {
				t.Fatalf("loss %v outside [0, %v]", p, lossMax)
			}
			total++
			if p > 0 {
				lossy++
			}
		}
	}
	frac := float64(lossy) / float64(total)
	if frac < lossyPairFrac/2 || frac > lossyPairFrac*1.5 {
		t.Fatalf("lossy pair fraction %.2f, configured %.2f", frac, lossyPairFrac)
	}
	if m.Loss(3, 3) != 0 {
		t.Fatal("self loss not zero")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, b := testModel(t, 11), testModel(t, 11)
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d differs", i)
		}
	}
	if a.BaseRTT(1, 50) != b.BaseRTT(1, 50) {
		t.Fatal("RTT matrix differs for same seed")
	}
}

func TestLazySitesExist(t *testing.T) {
	m := testModel(t, 12)
	lazy := 0
	for _, s := range m.Sites {
		if s.Lazy {
			lazy++
		}
	}
	frac := float64(lazy) / float64(m.NumSites())
	if frac == 0 || frac > 0.15 {
		t.Fatalf("lazy fraction %.3f implausible for config 0.05", frac)
	}
}
