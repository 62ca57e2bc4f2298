package live

import (
	"bytes"
	"testing"

	"vdm/internal/obs"
	"vdm/internal/overlay"
)

// TestJoinTraceCorrelation is the cross-peer correlation acceptance test:
// every peer writes its own JSONL trace (the deployment shape — one file
// per host), and merging those files must let the JoinID reconstruct a
// join's full source→child descent path, corroborated by the serving
// peers' own info_served/conn_served records.
func TestJoinTraceCorrelation(t *testing.T) {
	const (
		nPeers    = 24
		maxDegree = 4
	)
	// One JSONL buffer per peer, exactly as -trace gives one file per
	// vdmd process. NewCluster calls Sink on this goroutine before the
	// peer it serves starts, so bufs needs no lock.
	bufs := make([]*bytes.Buffer, nPeers)
	c := bootCluster(t, ClusterConfig{
		N:         nPeers,
		MaxDegree: maxDegree,
		Sink: func(id overlay.NodeID) obs.Sink {
			bufs[id] = &bytes.Buffer{}
			return obs.NewJSONLSink(bufs[id])
		},
	})

	// Snapshot the tree, then stop every peer so no sink is still being
	// written when the traces are read back.
	actualParent := make(map[int64]int64)
	for _, p := range c.Peers[1:] {
		v := p.View()
		actualParent[int64(v.ID())] = int64(v.ParentID())
	}
	c.Close()

	// Read every per-peer trace back the way vdmtop does.
	var traces [][]obs.Event
	for id, b := range bufs {
		evs, err := obs.ReadJSONL(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("peer %d trace: %v", id, err)
		}
		traces = append(traces, evs)
	}
	merged := obs.MergeTraces(traces...)
	joins := obs.ReconstructJoins(merged)

	// A Case II splice moves existing children under the new node without
	// a join procedure of their own, so an adopted peer's final parent
	// legitimately differs from its traced join parent. Collect who
	// spliced to recognize those.
	spliced := make(map[int64]bool)
	for _, e := range merged {
		if e.Type == obs.EvJoinConnect && e.Case == "splice" {
			spliced[e.Node] = true
		}
	}

	// Every joiner ran exactly one join procedure.
	if len(joins) != nPeers-1 {
		t.Fatalf("reconstructed %d joins, want %d", len(joins), nPeers-1)
	}

	deepJoins := 0
	for id, j := range joins {
		if !j.Done {
			t.Errorf("join %s never completed: %+v", id, j)
			continue
		}
		if j.Purpose != "join" {
			t.Errorf("join %s purpose %q", id, j.Purpose)
		}
		if len(j.Path) == 0 || j.Path[0].Node != 0 {
			t.Errorf("join %s does not start at the source: %+v", id, j.Path)
			continue
		}
		// The trace's resulting parent matches the peer's real parent
		// (no churn: the first join is the final attachment), unless a
		// later joiner's splice adopted the peer away.
		if got := actualParent[j.Node]; j.Parent != got && !spliced[got] {
			t.Errorf("join %s: traced parent %d, actual parent %d (not a splice adopter)", id, j.Parent, got)
		}
		// Cross-peer corroboration: every queried node's own trace holds
		// the matching info_served record.
		for i, st := range j.Path {
			if !st.Served {
				t.Errorf("join %s step %d (node %d) not corroborated by the server's trace", id, i, st.Node)
			}
		}
		// And the accepting parent logged the conn_served accept.
		if j.Accepted != j.Parent {
			t.Errorf("join %s: accept logged by %d, parent is %d", id, j.Accepted, j.Parent)
		}
		if len(j.Path) >= 2 {
			deepJoins++
			// A descent: consecutive steps move source → child, each
			// later than the one before.
			for i := 1; i < len(j.Path); i++ {
				if j.Path[i].T < j.Path[i-1].T {
					t.Errorf("join %s path not time-ordered: %+v", id, j.Path)
				}
			}
		}
	}
	// 23 joiners under degree 4: the source saturates, so at least one
	// join must have descended through ≥2 nodes — the multi-peer path the
	// correlation exists for.
	if deepJoins == 0 {
		t.Fatal("no join descended past the source; correlation never exercised a multi-peer path")
	}
}
