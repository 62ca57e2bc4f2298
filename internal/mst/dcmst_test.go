package mst

import (
	"math"
	"testing"
	"testing/quick"

	"vdm/internal/rng"
)

func randomCosts(seed int64, n int) [][]float64 {
	rnd := rng.New(seed)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := rnd.Uniform(1, 100)
			m[i][j], m[j][i] = c, c
		}
	}
	return m
}

func TestDegreeConstrainedPrimRespectsBound(t *testing.T) {
	m := randomCosts(4, 30)
	cost := func(i, j int) float64 { return m[i][j] }
	for _, deg := range []int{1, 2, 3, 5} {
		parent, total := DegreeConstrainedPrim(30, deg, cost)
		if got := maxDegreeOf(parent); got > deg {
			t.Fatalf("degree %d exceeded: %d", deg, got)
		}
		if total <= 0 {
			t.Fatalf("total %v", total)
		}
		// Spanning: every vertex reaches the root.
		for v := 1; v < 30; v++ {
			cur, steps := v, 0
			for cur != 0 {
				if parent[cur] < 0 || steps > 30 {
					t.Fatalf("vertex %d not rooted", v)
				}
				cur = parent[cur]
				steps++
			}
		}
	}
}

func TestDegreeConstrainedDegenerateChain(t *testing.T) {
	// Degree 1 forces a Hamiltonian-path-like chain.
	m := randomCosts(5, 12)
	parent, _ := DegreeConstrainedPrim(12, 1, func(i, j int) float64 { return m[i][j] })
	if got := maxDegreeOf(parent); got != 1 {
		t.Fatalf("chain has branching %d", got)
	}
}

func TestDegreeConstrainedCostOrdering(t *testing.T) {
	// Unconstrained MST ≤ DCMST(k) and cost is non-increasing in k.
	m := randomCosts(6, 25)
	cost := func(i, j int) float64 { return m[i][j] }
	_, unconstrained := Prim(25, cost)
	prev := math.Inf(1)
	for _, deg := range []int{1, 2, 4, 24} {
		_, total := DegreeConstrainedPrim(25, deg, cost)
		if total < unconstrained-1e-9 {
			t.Fatalf("DCMST(%d) = %v below MST %v", deg, total, unconstrained)
		}
		if total > prev+1e-9 {
			t.Fatalf("DCMST cost increased with capacity: %v after %v", total, prev)
		}
		prev = total
	}
	// With capacity ≥ n−1 the heuristic reproduces Prim exactly.
	_, loose := DegreeConstrainedPrim(25, 24, cost)
	if math.Abs(loose-unconstrained) > 1e-9 {
		t.Fatalf("unbounded DCMST %v != MST %v", loose, unconstrained)
	}
}

func TestDegreeConstrainedEmptyAndSingle(t *testing.T) {
	if p, c := DegreeConstrainedPrim(0, 3, nil); p != nil || c != 0 {
		t.Fatal("empty")
	}
	p, c := DegreeConstrainedPrim(1, 3, func(i, j int) float64 { return 1 })
	if len(p) != 1 || p[0] != -1 || c != 0 {
		t.Fatal("singleton")
	}
}

// Property: the heuristic always spans within the bound (no fallback
// needed on complete graphs with degree ≥ 2).
func TestPropertyDCMSTSpansWithinBound(t *testing.T) {
	f := func(seed int64, szRaw, degRaw uint8) bool {
		n := int(szRaw%15) + 2
		deg := int(degRaw%4) + 2
		m := randomCosts(seed, n)
		parent, _ := DegreeConstrainedPrim(n, deg, func(i, j int) float64 { return m[i][j] })
		if maxDegreeOf(parent) > deg {
			return false
		}
		rooted := 0
		for v := 1; v < n; v++ {
			cur, steps := v, 0
			for cur != 0 && steps <= n {
				cur = parent[cur]
				steps++
			}
			if cur == 0 {
				rooted++
			}
		}
		return rooted == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// maxDegreeOf reports the maximum child count in a parent-vector tree.
func maxDegreeOf(parent []int) int {
	kids := map[int]int{}
	m := 0
	for _, p := range parent {
		if p >= 0 {
			kids[p]++
			if kids[p] > m {
				m = kids[p]
			}
		}
	}
	return m
}
