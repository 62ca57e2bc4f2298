package underlay

import (
	"testing"

	"vdm/internal/rng"
	"vdm/internal/topology"
)

func budgetTestUnderlay(t *testing.T, plBudget int) *RouterUnderlay {
	t.Helper()
	ts, err := topology.GenerateTransitStub(topology.ScaledTransitStub(100), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ts.AssignLinkLoss(0.05, rng.New(6))
	attach := ts.AttachHosts(64, rng.New(7))
	return NewRouter(ts.Graph, attach).WithCacheBudget(plBudget)
}

// TestCacheBudgetBoundsResidency pins the path-loss budget: with it set,
// the cache stays bounded no matter how many distinct pairs are queried,
// and wiping it never changes a value. Shortest-path trees have no
// budget; the router count bounds them.
func TestCacheBudgetBoundsResidency(t *testing.T) {
	const plBudget = 16
	bounded := budgetTestUnderlay(t, plBudget)
	unbounded := budgetTestUnderlay(t, 0)

	n := len(bounded.attach)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if got, want := bounded.LossRate(a, b), unbounded.LossRate(a, b); got != want {
				t.Fatalf("LossRate(%d,%d) = %v under budget, %v unbounded", a, b, got, want)
			}
			if _, pl := cacheStats(bounded); pl > plBudget {
				t.Fatalf("path-loss cache grew to %d entries, budget %d", pl, plBudget)
			}
		}
	}

	// Unbudgeted: the cache holds every pair queried.
	if _, pl := cacheStats(unbounded); pl <= plBudget {
		t.Fatalf("unbounded path-loss cache has only %d entries; test is not exercising the budget", pl)
	}
	if spts, _ := cacheStats(bounded); spts == 0 || spts > bounded.g.NumRouters() {
		t.Fatalf("%d shortest-path trees resident, want 1..%d", spts, bounded.g.NumRouters())
	}
}

// cacheStats reports the resident entry counts of u's SPT and path-loss
// caches.
func cacheStats(u *RouterUnderlay) (spts, pathLoss int) {
	for i := range u.spts {
		if u.spts[i].Load() != nil {
			spts++
		}
	}
	u.mu.RLock()
	defer u.mu.RUnlock()
	return spts, u.pathLoss.n
}
