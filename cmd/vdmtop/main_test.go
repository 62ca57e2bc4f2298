package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"vdm/internal/golden"
	"vdm/internal/obs/tree"
)

// TestRenderTreeGolden pins the topology view of a hand-built /tree
// snapshot, with and without an /edges snapshot, as vdmtop -nocolor
// prints it. The snapshot has a stale peer, a lossy and a throttled
// uplink, a peer hanging off a parent the source never heard from and an
// orphan, so the STALE mark, the edge annotations and the "~ N detached"
// lines are all covered. `make goldens` re-records both files when the
// rendering changes on purpose.
func TestRenderTreeGolden(t *testing.T) {
	snap := &tree.Snapshot{
		AtS:    42.5,
		Source: 0,
		Summary: tree.Summary{
			Members: 6, Reachable: 3, Stale: 1, Partitioned: 2, Orphans: 1,
			CostMS: 50.75, MaxDepth: 2, AvgDepth: 1.33,
			StretchProxyAvg: 1.2, StretchProxyMax: 1.5, MaxFanout: 2, AvgFanout: 1.5,
		},
		Peers: []tree.PeerHealth{
			{ID: 0, Parent: -1},
			{ID: 1, Parent: 0, Depth: 1, ParentRTTMS: 12.5},
			{ID: 3, Parent: 0, Depth: 1, ParentRTTMS: 30},
			{ID: 2, Parent: 1, Depth: 2, ParentRTTMS: 8.25, Stale: true},
			{ID: 4, Parent: 9, Depth: -1, Partitioned: true},
			{ID: 5, Parent: -1, Depth: -1, Partitioned: true, Stale: true},
		},
	}
	edges := &tree.EdgesSnapshot{
		AtS:     42.5,
		Summary: tree.EdgeSummary{Total: 3, OK: 1, Throttled: 1, Lossy: 1},
		Edges: []tree.EdgeHealth{
			{Parent: 0, Child: 1, Status: tree.EdgeOK, Score: 1},
			{Parent: 1, Child: 2, Status: tree.EdgeLossy, Score: 0.6, NacksSent: 3, NacksFromChild: 5},
			{Parent: 0, Child: 3, Status: tree.EdgeThrottled, Score: 0.8, StallPulls: 2, RateChunksPerS: 4, BaseRate: 8},
		},
	}
	for name, es := range map[string]*tree.EdgesSnapshot{"tree": nil, "tree_edges": edges} {
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			RenderTree(&got, snap, es, false)
			golden.Check(t, filepath.Join("testdata", name+".golden"), got.Bytes())
		})
	}
}
