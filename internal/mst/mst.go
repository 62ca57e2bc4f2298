// Package mst computes minimum spanning trees over the peer-to-peer
// distance graph. The paper uses the MST as the efficiency yardstick an
// overlay tree should converge toward (figure 5.31 reports the ratio of
// overlay tree cost to MST cost).
package mst

import "math"

// Prim computes the minimum spanning tree of the complete graph over n
// vertices with edge costs given by cost (assumed symmetric). It returns
// the parent of each vertex in the tree rooted at vertex 0 (parent[0] is
// -1) and the total tree cost. n = 0 yields an empty tree.
func Prim(n int, cost func(i, j int) float64) (parent []int, total float64) {
	if n == 0 {
		return nil, 0
	}
	parent = make([]int, n)
	best := make([]float64, n)
	from := make([]int, n)
	in := make([]bool, n)
	for i := range best {
		best[i] = math.Inf(1)
		from[i] = -1
		parent[i] = -1
	}
	best[0] = 0
	for iter := 0; iter < n; iter++ {
		u := -1
		for v := 0; v < n; v++ {
			if !in[v] && (u == -1 || best[v] < best[u]) {
				u = v
			}
		}
		in[u] = true
		if from[u] >= 0 {
			parent[u] = from[u]
			total += best[u]
		}
		for v := 0; v < n; v++ {
			if !in[v] {
				if c := cost(u, v); c < best[v] {
					best[v] = c
					from[v] = u
				}
			}
		}
	}
	return parent, total
}

// Ratio returns treeCost/mstCost, the paper's convergence measure, or 0
// when the MST cost is zero.
func Ratio(treeCost, mstCost float64) float64 {
	if mstCost <= 0 {
		return 0
	}
	return treeCost / mstCost
}
