package sim

// The parent-chain walks that metrics.Chains replaced, kept unchanged as
// reference implementations for the differential test in reach_test.go:
// metrics.Collect, metrics.ReachableSet and metrics.Validate, the
// simulator's treeDepths, and the tree aggregator's chainTo (here over a
// byID map built from the views' parents, as Snapshot built it from the
// reports).

import (
	"fmt"

	"vdm/internal/metrics"
	"vdm/internal/overlay"
	"vdm/internal/stats"
	"vdm/internal/underlay"
)

// refCollect computes a TreeSnapshot for the given peers (the source must be
// among views) over underlay u.
func refCollect(views []overlay.TreeView, source overlay.NodeID, u underlay.Underlay) metrics.TreeSnapshot {
	byID := make(map[overlay.NodeID]overlay.TreeView, len(views))
	for _, v := range views {
		byID[v.ID()] = v
	}
	var snap metrics.TreeSnapshot
	var stretches, leafStretches, hops, leafHops []float64
	linkStress := make(map[int]int)
	directSum := 0.0

	for _, v := range views {
		if v.IsSource() {
			continue
		}
		snap.Alive++
		if v.ParentID() == overlay.None {
			snap.Orphans++
			continue
		}
		// Walk to the source, accumulating overlay path delay and hops.
		delay, hopN, reached := 0.0, 0, false
		cur := v
		for steps := 0; steps <= len(views); steps++ {
			p := cur.ParentID()
			if p == overlay.None {
				break
			}
			delay += u.BaseRTT(int(cur.ID()), int(p))
			hopN++
			pv, ok := byID[p]
			if !ok {
				break
			}
			if p == source {
				reached = true
				break
			}
			cur = pv
		}
		if !reached {
			continue
		}
		snap.Reachable++

		// The peer's own edge contributes to stress and usage.
		pid := v.ParentID()
		edgeRTT := u.BaseRTT(int(v.ID()), int(pid))
		snap.UsageMS += edgeRTT
		for _, l := range u.PathLinks(int(v.ID()), int(pid)) {
			linkStress[int(l)]++
		}

		direct := u.BaseRTT(int(source), int(v.ID()))
		directSum += direct
		isLeaf := len(v.ChildIDs()) == 0
		if direct > 0 {
			s := delay / direct
			stretches = append(stretches, s)
			if isLeaf {
				leafStretches = append(leafStretches, s)
			}
		}
		hops = append(hops, float64(hopN))
		if isLeaf {
			leafHops = append(leafHops, float64(hopN))
		}
	}

	if len(linkStress) > 0 {
		sum, maxS := 0, 0
		for _, c := range linkStress {
			sum += c
			if c > maxS {
				maxS = c
			}
		}
		snap.Stress = float64(sum) / float64(len(linkStress))
		snap.MaxStress = float64(maxS)
	}
	snap.Stretch = stats.Mean(stretches)
	snap.MinStretch = stats.Min(stretches)
	snap.MaxStretch = stats.Max(stretches)
	snap.LeafStretch = stats.Mean(leafStretches)
	snap.Hopcount = stats.Mean(hops)
	snap.LeafHopcount = stats.Mean(leafHops)
	snap.MaxHopcount = stats.Max(hops)
	if directSum > 0 {
		snap.UsageNorm = snap.UsageMS / directSum
	}
	return snap
}

// refReachableSet returns the ids of the source plus every peer whose parent
// chain reaches the source — the vertex set MST comparisons run over.
func refReachableSet(views []overlay.TreeView, source overlay.NodeID) []overlay.NodeID {
	byID := make(map[overlay.NodeID]overlay.TreeView, len(views))
	for _, v := range views {
		byID[v.ID()] = v
	}
	out := []overlay.NodeID{source}
	for _, v := range views {
		if v.IsSource() || v.ParentID() == overlay.None {
			continue
		}
		cur, reached := v, false
		for steps := 0; steps <= len(views); steps++ {
			p := cur.ParentID()
			if p == overlay.None {
				break
			}
			if p == source {
				reached = true
				break
			}
			pv, ok := byID[p]
			if !ok {
				break
			}
			cur = pv
		}
		if reached {
			out = append(out, v.ID())
		}
	}
	return out
}

// refValidate checks the structural invariants of the overlay tree and
// returns a description of every violation: parent/child symmetry, degree
// limits, acyclicity, and reachability bookkeeping. Sessions run it at
// every measurement point in tests.
func refValidate(views []overlay.TreeView, source overlay.NodeID, maxDegree func(overlay.NodeID) int) []string {
	byID := make(map[overlay.NodeID]overlay.TreeView, len(views))
	for _, v := range views {
		byID[v.ID()] = v
	}
	var errs []string
	for _, v := range views {
		id := v.ID()
		if md := maxDegree(id); len(v.ChildIDs()) > md {
			errs = append(errs, fmt.Sprintf("node %d has %d children, degree limit %d", id, len(v.ChildIDs()), md))
		}
		for _, c := range v.ChildIDs() {
			cv, ok := byID[c]
			if !ok {
				continue // child departed; the data plane will reap it
			}
			if cv.ParentID() != id {
				errs = append(errs, fmt.Sprintf("child %d of %d has parent %d", c, id, cv.ParentID()))
			}
		}
		if p := v.ParentID(); p != overlay.None {
			if v.IsSource() {
				errs = append(errs, fmt.Sprintf("source %d has parent %d", id, p))
			}
			if p == id {
				errs = append(errs, fmt.Sprintf("node %d is its own parent", id))
			}
		}
		// Cycle check: the parent chain must terminate within |views|
		// steps.
		cur, steps := v, 0
		for cur.ParentID() != overlay.None && steps <= len(views) {
			pv, ok := byID[cur.ParentID()]
			if !ok {
				break
			}
			cur = pv
			steps++
		}
		if steps > len(views) {
			errs = append(errs, fmt.Sprintf("cycle through node %d", id))
		}
	}
	return errs
}

// refTreeDepths returns the memoized hop depth below the source of each
// view's id; -1 means the node has no path to the source (unattached, a
// departed ancestor, or a cycle).
func refTreeDepths(views []overlay.TreeView) func(id overlay.NodeID) int {
	depth := map[overlay.NodeID]int{0: 0}
	byID := make(map[overlay.NodeID]overlay.TreeView, len(views))
	for _, v := range views {
		byID[v.ID()] = v
	}
	var depthOf func(id overlay.NodeID) int
	depthOf = func(id overlay.NodeID) int {
		if d, ok := depth[id]; ok {
			return d
		}
		v, ok := byID[id]
		if !ok || v.ParentID() == overlay.None {
			depth[id] = -1
			return -1
		}
		depth[id] = len(views) + 1 // cycle guard while recursing
		pd := depthOf(v.ParentID())
		if pd < 0 {
			depth[id] = -1
		} else {
			depth[id] = pd + 1
		}
		return depth[id]
	}
	return depthOf
}

// refChainTo returns the tree aggregator's chainTo over the reports in
// byID, one per id in rows, toward source.
func refChainTo(byID map[overlay.NodeID]overlay.StatusReport, rows []overlay.NodeID, source overlay.NodeID) func(id overlay.NodeID) (int, float64, bool) {
	// chainTo walks id's parent chain; returns (depth, summed parent
	// RTT, reached-source).
	chainTo := func(id overlay.NodeID) (int, float64, bool) {
		depth, rtt := 0, 0.0
		cur := id
		for range rows {
			r, ok := byID[cur]
			if !ok || r.Parent == overlay.None {
				return depth, rtt, false
			}
			depth++
			rtt += r.ParentDist
			if r.Parent == source {
				return depth, rtt, true
			}
			cur = r.Parent
		}
		return depth, rtt, false // loop
	}
	return chainTo
}
