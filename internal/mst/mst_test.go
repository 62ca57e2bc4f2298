package mst

import (
	"math"
	"testing"
	"testing/quick"

	"vdm/internal/rng"
)

func TestPrimKnownSquare(t *testing.T) {
	// Square with side 1 and diagonals √2: MST cost is 3.
	pts := [][2]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	cost := func(i, j int) float64 {
		dx := pts[i][0] - pts[j][0]
		dy := pts[i][1] - pts[j][1]
		return math.Hypot(dx, dy)
	}
	parent, total := Prim(4, cost)
	if math.Abs(total-3) > 1e-9 {
		t.Fatalf("MST cost %v, want 3", total)
	}
	if parent[0] != -1 {
		t.Fatal("root parent should be -1")
	}
	sum := 0.0
	for i, p := range parent {
		if p >= 0 {
			sum += cost(p, i)
		}
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Fatalf("tree edges sum to %v, Prim total %v", sum, total)
	}
}

func TestPrimEmptyAndSingleton(t *testing.T) {
	if p, c := Prim(0, nil); p != nil || c != 0 {
		t.Fatal("empty graph")
	}
	p, c := Prim(1, func(i, j int) float64 { return 1 })
	if len(p) != 1 || p[0] != -1 || c != 0 {
		t.Fatalf("singleton: %v %v", p, c)
	}
}

func TestPrimSpanning(t *testing.T) {
	rnd := rng.New(9)
	n := 12
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
	parent, _ := Prim(n, func(i, j int) float64 { return m[i][j] })
	// Every vertex except 0 has a parent, and the parent pointers form
	// a tree rooted at 0.
	for v := 1; v < n; v++ {
		seen := map[int]bool{}
		cur := v
		for cur != 0 {
			if seen[cur] || parent[cur] < 0 {
				t.Fatalf("vertex %d not connected to root (stuck at %d)", v, cur)
			}
			seen[cur] = true
			cur = parent[cur]
		}
	}
}

// bruteForceMST enumerates all spanning trees of small complete graphs via
// parent-vector enumeration (Prüfer-light, n ≤ 5: n^(n-2) trees).
func bruteForceMST(n int, cost func(i, j int) float64) float64 {
	best := math.Inf(1)
	// Enumerate Prüfer sequences of length n-2 over [0,n).
	seq := make([]int, n-2)
	var rec func(k int)
	rec = func(k int) {
		if k == len(seq) {
			total := pruferCost(seq, n, cost)
			if total < best {
				best = total
			}
			return
		}
		for v := 0; v < n; v++ {
			seq[k] = v
			rec(k + 1)
		}
	}
	if n == 1 {
		return 0
	}
	if n == 2 {
		return cost(0, 1)
	}
	rec(0)
	return best
}

// pruferCost decodes a Prüfer sequence into a tree and sums its edge
// costs.
func pruferCost(seq []int, n int, cost func(i, j int) float64) float64 {
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range seq {
		degree[v]++
	}
	total := 0.0
	used := make([]bool, n)
	for _, v := range seq {
		for u := 0; u < n; u++ {
			if degree[u] == 1 && !used[u] {
				total += cost(u, v)
				used[u] = true
				degree[v]--
				break
			}
		}
	}
	// The last two remaining vertices connect.
	var last []int
	for u := 0; u < n; u++ {
		if !used[u] && degree[u] == 1 {
			last = append(last, u)
		}
	}
	total += cost(last[0], last[1])
	return total
}

// Property: Prim matches exhaustive enumeration on complete graphs with up
// to 5 vertices.
func TestPropertyPrimOptimal(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%4) + 2 // 2..5
		rnd := rng.New(seed)
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c := rnd.Uniform(1, 50)
				m[i][j], m[j][i] = c, c
			}
		}
		cost := func(i, j int) float64 { return m[i][j] }
		_, prim := Prim(n, cost)
		brute := bruteForceMST(n, cost)
		return math.Abs(prim-brute) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("ratio")
	}
	if Ratio(6, 0) != 0 {
		t.Fatal("zero MST cost should yield 0")
	}
}
