package underlay

import (
	"math"
	"testing"

	"vdm/internal/geo"
	"vdm/internal/rng"
	"vdm/internal/topology"
)

// checkPartition checks the conservative-lookahead contract of one
// partition: every host has a shard in [0, shards), every keyed delivery
// between hosts on different shards takes at least the lookahead (and the
// same delay when drawn again), and the lookahead is no smaller than
// globalMin, the least delay between any two hosts.
func checkPartition(t *testing.T, u interface {
	Underlay
	KeyedJitter
}, hosts, shards int, globalMin float64) {
	t.Helper()
	owner, lookahead := u.Partition(shards)
	if len(owner) != hosts {
		t.Fatalf("S=%d: %d owners for %d hosts", shards, len(owner), hosts)
	}
	for h, o := range owner {
		if o < 0 || o >= shards {
			t.Fatalf("S=%d: host %d on shard %d", shards, h, o)
		}
	}
	if !(lookahead >= globalMin) {
		t.Fatalf("S=%d: lookahead %v below the global minimum %v", shards, lookahead, globalMin)
	}
	apart := 0
	for a := range owner {
		for b := range owner {
			if owner[a] == owner[b] {
				continue
			}
			apart++
			for draw := uint64(0); draw < 32; draw++ {
				d := u.OneWayDelayMSKeyed(a, b, draw)
				if d < lookahead {
					t.Fatalf("S=%d: delay(%d,%d,%d) = %v below the lookahead %v", shards, a, b, draw, d, lookahead)
				}
				if again := u.OneWayDelayMSKeyed(a, b, draw); again != d {
					t.Fatalf("S=%d: delay(%d,%d,%d) drew %v, then %v", shards, a, b, draw, d, again)
				}
			}
		}
	}
	if apart == 0 && !math.IsInf(lookahead, 1) {
		t.Fatalf("S=%d: no host pair is apart, yet the lookahead is %v, not +Inf", shards, lookahead)
	}
}

// TestKeyedJitterBounds checks the conservative-lookahead contract of
// both underlays' partitions over several graphs, site picks and jitter
// seeds, at shard counts that do and do not divide the four transit
// domains and the eight geo regions.
func TestKeyedJitterBounds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ts, err := topology.GenerateTransitStub(topology.ScaledTransitStub(100), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ru := NewRouter(ts.Graph, ts.AttachHosts(64, rng.New(seed+10))).WithKeyedJitter(seed, 0.1)
		m := geo.Generate(geo.DefaultSitesPerRegion, rng.New(seed+20))
		all := make([]int, m.NumSites())
		for i := range all {
			all[i] = i
		}
		sites, err := m.PickSites(all, 48, seed)
		if err != nil {
			t.Fatal(err)
		}
		gu := NewGeoKeyed(m, sites, seed)
		geoMin := math.Inf(1)
		for a := range sites {
			for b := range sites {
				if a != b {
					geoMin = min(geoMin, gu.OneWayDelayMS(a, b))
				}
			}
		}
		for _, shards := range []int{2, 3, 4, 8} {
			// Two hosts on one router: the least delay the router
			// underlay can give any pair.
			checkPartition(t, ru, len(ru.attach), shards, keyedLowerBound(2*hostAccessMS, 0.1))
			checkPartition(t, gu, len(gu.sites), shards, keyedLowerBound(geoMin, m.JitterSigma))
		}
	}
}

// TestPartitionSplitsTransitDomains pins what the partition buys on the
// paper's graph: on the default 784-router transit-stub topology two
// shards are two transit domains each, and the lookahead is at least ten
// times the delay two hosts on one router can have.
func TestPartitionSplitsTransitDomains(t *testing.T) {
	const sigma = 0.1
	u, _ := routerFixture(t, 200)
	u.WithKeyedJitter(1, sigma)
	owner, lookahead := u.Partition(2)
	if global := keyedLowerBound(2*hostAccessMS, sigma); lookahead < 10*global {
		t.Fatalf("lookahead %v ms, want ≥ 10 × %v ms", lookahead, global)
	}
	perDomain := u.g.NumRouters() / topology.DefaultTransitStub().TransitDomains
	for h, o := range owner {
		if want := int(u.AttachmentRouter(h)) / perDomain / 2; o != want {
			t.Fatalf("host %d on router %d is on shard %d, want %d (its transit domain's half)", h, u.AttachmentRouter(h), o, want)
		}
	}
}
