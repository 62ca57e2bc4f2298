// Package topology builds and queries the router-level underlay used by the
// chapter-3/4 simulations: a GT-ITM-style transit-stub graph with weighted
// links, shortest-path routing, and host attachment points.
package topology

import (
	"fmt"
	"math"
)

// RouterID identifies a router in the underlay graph.
type RouterID int

// LinkID identifies an undirected physical link. Links are the unit that
// the stress metric counts duplicate transmissions on.
type LinkID int

// Link is an undirected weighted edge between two routers.
type Link struct {
	ID       LinkID
	A, B     RouterID
	DelayMS  float64 // one-way propagation delay in milliseconds
	LossRate float64 // Bernoulli per-traversal drop probability
}

// Graph is an undirected weighted router graph.
type Graph struct {
	links []Link
	adj   [][]halfEdge // adjacency: per router, outgoing half-edges
}

type halfEdge struct {
	to   RouterID
	link LinkID
}

// NewGraph returns a graph with n routers and no links.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]halfEdge, n)}
}

// NumRouters reports the number of routers.
func (g *Graph) NumRouters() int { return len(g.adj) }

// NumLinks reports the number of undirected links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Link returns the link with the given id.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Links returns all links. The returned slice must not be modified.
func (g *Graph) Links() []Link { return g.links }

// HasEdge reports whether an a–b link already exists.
func (g *Graph) HasEdge(a, b RouterID) bool {
	for _, he := range g.adj[a] {
		if he.to == b {
			return true
		}
	}
	return false
}

// AddLink adds an undirected link between a and b and returns its id.
// Self-loops and duplicate edges are rejected.
func (g *Graph) AddLink(a, b RouterID, delayMS float64) (LinkID, error) {
	if a == b {
		return 0, fmt.Errorf("topology: self-loop at router %d", a)
	}
	if int(a) < 0 || int(a) >= len(g.adj) || int(b) < 0 || int(b) >= len(g.adj) {
		return 0, fmt.Errorf("topology: link %d-%d out of range", a, b)
	}
	if g.HasEdge(a, b) {
		return 0, fmt.Errorf("topology: duplicate link %d-%d", a, b)
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, A: a, B: b, DelayMS: delayMS})
	g.adj[a] = append(g.adj[a], halfEdge{to: b, link: id})
	g.adj[b] = append(g.adj[b], halfEdge{to: a, link: id})
	return id, nil
}

// SetLinkLoss assigns a Bernoulli loss rate to the link.
func (g *Graph) SetLinkLoss(id LinkID, p float64) {
	g.links[id].LossRate = p
}

// Connected reports whether the graph is a single connected component.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return true
	}
	seen := make([]bool, len(g.adj))
	stack := []RouterID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, he := range g.adj[r] {
			if !seen[he.to] {
				seen[he.to] = true
				count++
				stack = append(stack, he.to)
			}
		}
	}
	return count == len(g.adj)
}

// SPT is a shortest-path tree rooted at one router: distances (one-way, ms)
// and, for path reconstruction, the predecessor link of every router. A
// row is 12 bytes per router — the float64 distance and an int32 link id
// (-1: the root, or unreachable) — because a session keeps one tree per
// attachment router in use. The predecessor router is not stored: it is
// the other end of the predecessor link.
type SPT struct {
	Root     RouterID
	DistMS   []float64
	prevLink []int32
	links    []Link // the graph's links, for the far end of a prevLink
}

// ShortestPaths runs Dijkstra from root over link delays.
func (g *Graph) ShortestPaths(root RouterID) *SPT {
	n := len(g.adj)
	t := &SPT{
		Root:     root,
		DistMS:   make([]float64, n),
		prevLink: make([]int32, n),
		links:    g.links,
	}
	for i := range t.DistMS {
		t.DistMS[i] = math.Inf(1)
		t.prevLink[i] = -1
	}
	t.DistMS[root] = 0

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
			nd := it.d + g.links[he.link].DelayMS
			if nd < t.DistMS[he.to] {
				t.DistMS[he.to] = nd
				t.prevLink[he.to] = int32(he.link)
				pq.push(distItem{r: he.to, d: nd})
			}
		}
	}
	return t
}

// NearestDistMS runs one Dijkstra from every router of sources at once
// and returns, per router, the one-way distance to the nearest source (+Inf
// when none reaches it). Each value is a sum along a path that starts at
// a source and is never above ShortestPaths(s).DistMS of any source s, so
// a minimum read off it bounds every source's own tree from below.
func (g *Graph) NearestDistMS(sources []RouterID) []float64 {
	dist := make([]float64, len(g.adj))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	pq := &distHeap{}
	for _, s := range sources {
		dist[s] = 0
		pq.push(distItem{r: s, d: 0})
	}
	done := make([]bool, len(g.adj))
	for pq.len() > 0 {
		it := pq.pop()
		if done[it.r] {
			continue
		}
		done[it.r] = true
		for _, he := range g.adj[it.r] {
			if nd := it.d + g.links[he.link].DelayMS; nd < dist[he.to] {
				dist[he.to] = nd
				pq.push(distItem{r: he.to, d: nd})
			}
		}
	}
	return dist
}

// hop returns the router one link closer to the root than r: the other
// end of r's predecessor link.
func (t *SPT) hop(r RouterID) RouterID {
	l := &t.links[t.prevLink[r]]
	if l.A == r {
		return l.B
	}
	return l.A
}

// PathLinks returns the link ids along the shortest path from the tree root
// to dst, in dst-to-root order. It returns nil when dst is unreachable or
// is the root itself.
func (t *SPT) PathLinks(dst RouterID) []LinkID {
	if math.IsInf(t.DistMS[dst], 1) || dst == t.Root {
		return nil
	}
	var out []LinkID
	for r := dst; r != t.Root; r = t.hop(r) {
		out = append(out, LinkID(t.prevLink[r]))
	}
	return out
}

// distHeap is a minimal binary heap specialized for Dijkstra, avoiding
// container/heap interface overhead on the hot path.
type distItem struct {
	r RouterID
	d float64
}

type distHeap struct{ a []distItem }

func (h *distHeap) len() int { return len(h.a) }

func (h *distHeap) push(it distItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].d <= h.a[i].d {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l].d < h.a[small].d {
			small = l
		}
		if r < len(h.a) && h.a[r].d < h.a[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
