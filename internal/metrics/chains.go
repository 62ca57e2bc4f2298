package metrics

import "vdm/internal/overlay"

// Chains indexes the parent chains of one tree snapshot; it is where
// reachability is decided. The source is reachable at depth 0, and a
// node at depth d+1 when its parent is the source or a reachable node at
// depth d. Any other node's chain ends (at no parent, or at an id outside
// the snapshot: a departed peer) or never terminates (the node is in a
// cycle or below one). Termination follows the real parent pointers,
// through the source's own parent too: a source whose chain loops makes
// every reachable chain loop with it.
type Chains struct {
	pos      map[overlay.NodeID]int
	depth    []int // ≥ 0, ended or looping
	down     []int
	srcLoops bool
}

const (
	ended   = -1 // the chain ends at no parent or at a departed id
	looping = -2 // the chain never terminates
	unknown = -3 // not walked yet
	onPath  = -4 // on the walk in progress
)

// NewChains indexes n nodes in O(n); link(i) returns node i's id and its
// parent id (overlay.None for none). Positions are the indexes 0…n−1.
func NewChains(n int, link func(i int) (id, parent overlay.NodeID), source overlay.NodeID) *Chains {
	c := &Chains{pos: make(map[overlay.NodeID]int, n), depth: make([]int, n), down: make([]int, 0, n)}
	parents := make([]overlay.NodeID, n)
	for i := range parents {
		var id overlay.NodeID
		id, parents[i] = link(i)
		c.pos[id], c.depth[i] = i, unknown
	}
	src, hasSrc := c.pos[source]
	if hasSrc {
		c.depth[src] = 0
		c.down = append(c.down, src)
	}
	var path []int
	for i := range c.depth {
		// Climb until the chain meets a decided node, the source, its end
		// or itself, then hand the outcome back down the path.
		d, j := 0, i
		for {
			if dj := c.depth[j]; dj != unknown {
				if d = dj; dj == onPath {
					d = looping
				}
				break
			}
			c.depth[j] = onPath
			path = append(path, j)
			if parents[j] == source {
				break
			}
			pj, ok := c.pos[parents[j]]
			if !ok {
				d = ended
				break
			}
			j = pj
		}
		for k := len(path) - 1; k >= 0; k-- {
			if d >= 0 {
				d++
				c.down = append(c.down, path[k])
			}
			c.depth[path[k]] = d
		}
		path = path[:0]
	}
	if hasSrc {
		pj, ok := c.pos[parents[src]]
		c.srcLoops = parents[src] == source || ok && c.depth[pj] != ended
	}
	return c
}

// ViewChains indexes a snapshot of tree views.
func ViewChains(views []overlay.TreeView, source overlay.NodeID) *Chains {
	return NewChains(len(views), func(i int) (overlay.NodeID, overlay.NodeID) {
		return views[i].ID(), views[i].ParentID()
	}, source)
}

// Pos returns the position of the node with the given id.
func (c *Chains) Pos(id overlay.NodeID) (int, bool) {
	i, ok := c.pos[id]
	return i, ok
}

// Depth returns the hop count from node i to the source (0 for the
// source itself), or a negative number when i does not reach it.
func (c *Chains) Depth(i int) int { return c.depth[i] }

// Loops reports whether node i's real parent chain never terminates.
func (c *Chains) Loops(i int) bool { return c.depth[i] == looping || c.depth[i] >= 0 && c.srcLoops }

// Down lists the reachable positions, each after its parent: the source
// first when it is indexed.
func (c *Chains) Down() []int { return c.down }
