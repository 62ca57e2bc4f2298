package mst

import "math"

// DegreeConstrainedPrim computes a degree-constrained spanning tree with a
// greedy Prim-style heuristic: grow the tree by the cheapest edge whose
// tree endpoint still has degree capacity. The exact DCMST problem is
// NP-hard (the dissertation cites Garey & Johnson for this), so a
// heuristic is the honest comparison point for what a degree-limited
// overlay could at best achieve.
//
// maxDegree is the per-vertex child capacity of interior vertices (the
// root is bounded like everyone else; a vertex's parent link does not
// count against it, matching overlay degree semantics). maxDegree < 1 is
// treated as 1. The returned parent vector is rooted at vertex 0.
func DegreeConstrainedPrim(n int, maxDegree int, cost func(i, j int) float64) (parent []int, total float64) {
	if maxDegree < 1 {
		maxDegree = 1
	}
	if n == 0 {
		return nil, 0
	}
	parent = make([]int, n)
	in := make([]bool, n)
	kids := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	in[0] = true
	for count := 1; count < n; count++ {
		bestU, bestV := -1, -1
		best := math.Inf(1)
		for u := 0; u < n; u++ {
			if !in[u] || kids[u] >= maxDegree {
				continue
			}
			for v := 0; v < n; v++ {
				if in[v] {
					continue
				}
				if c := cost(u, v); c < best {
					best, bestU, bestV = c, u, v
				}
			}
		}
		if bestV == -1 {
			// Capacity exhausted: no spanning tree within the degree
			// bound from this greedy state. Fall back to ignoring the
			// bound for the remaining vertices so the result still
			// spans (mirrors an overlay accepting over-capacity foster
			// children rather than partitioning).
			for u := 0; u < n; u++ {
				if !in[u] {
					continue
				}
				for v := 0; v < n; v++ {
					if in[v] {
						continue
					}
					if c := cost(u, v); c < best {
						best, bestU, bestV = c, u, v
					}
				}
			}
		}
		in[bestV] = true
		parent[bestV] = bestU
		kids[bestU]++
		total += best
	}
	return parent, total
}
