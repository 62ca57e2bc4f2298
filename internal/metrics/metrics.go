// Package metrics computes the paper's evaluation metrics from a snapshot
// of the overlay tree and the underlay beneath it: stress, stretch, hop
// count, and resource usage come from the tree shape; loss, overhead,
// startup and reconnection times are assembled by the session runner from
// peer statistics and network counters.
package metrics

import (
	"fmt"

	"vdm/internal/overlay"
	"vdm/internal/stats"
	"vdm/internal/underlay"
)

// TreeSnapshot summarizes the overlay tree at one measurement instant.
type TreeSnapshot struct {
	// Stress is the average number of identical copies of a chunk
	// crossing each used physical link (always 1 for IP multicast).
	// Zero when the underlay has no router model.
	Stress    float64
	MaxStress float64

	// Stretch is the ratio of the overlay source→peer delay to the
	// direct unicast delay, averaged over reachable peers.
	Stretch     float64
	MinStretch  float64
	MaxStretch  float64
	LeafStretch float64 // average over leaf peers only

	// Hopcount is the overlay tree depth, averaged over reachable
	// peers.
	Hopcount     float64
	LeafHopcount float64
	MaxHopcount  float64

	// UsageMS is the summed base RTT of every overlay tree edge (ms) —
	// the paper's "resource usage". UsageNorm divides by the summed
	// direct source→peer RTT, i.e. the cost of a unicast star.
	UsageMS   float64
	UsageNorm float64

	// Population accounting.
	Alive     int // peers alive (excluding the source)
	Reachable int // peers whose tree path reaches the source
	Orphans   int // alive peers currently without a parent
}

// Collect computes a TreeSnapshot for the given peers (the source must be
// among views) over underlay u.
func Collect(views []overlay.TreeView, source overlay.NodeID, u underlay.Underlay) TreeSnapshot {
	chains := ViewChains(views, source)
	var snap TreeSnapshot
	var stretches, leafStretches, hops, leafHops []float64
	linkStress := make(map[int]int)
	directSum := 0.0

	for i, v := range views {
		if v.IsSource() {
			continue
		}
		snap.Alive++
		if v.ParentID() == overlay.None {
			snap.Orphans++
			continue
		}
		hopN := chains.Depth(i)
		if hopN < 0 {
			continue
		}
		snap.Reachable++
		// Walk to the source, accumulating overlay path delay.
		delay := 0.0
		for cur, p := v, v.ParentID(); ; p = cur.ParentID() {
			delay += u.BaseRTT(int(cur.ID()), int(p))
			if p == source {
				break
			}
			pi, _ := chains.Pos(p)
			cur = views[pi]
		}

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

// Validate checks the structural invariants of the overlay tree and
// returns a description of every violation: parent/child symmetry, degree
// limits, acyclicity, and reachability bookkeeping. Sessions run it at
// every measurement point in tests.
func Validate(views []overlay.TreeView, source overlay.NodeID, maxDegree func(overlay.NodeID) int) []string {
	chains := ViewChains(views, source)
	var errs []string
	for i, v := range views {
		id := v.ID()
		if md := maxDegree(id); len(v.ChildIDs()) > md {
			errs = append(errs, fmt.Sprintf("node %d has %d children, degree limit %d", id, len(v.ChildIDs()), md))
		}
		for _, c := range v.ChildIDs() {
			// A departed child is skipped: the data plane will reap it.
			if ci, ok := chains.Pos(c); ok && views[ci].ParentID() != id {
				errs = append(errs, fmt.Sprintf("child %d of %d has parent %d", c, id, views[ci].ParentID()))
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
		if chains.Loops(i) {
			errs = append(errs, fmt.Sprintf("cycle through node %d", id))
		}
	}
	return errs
}
