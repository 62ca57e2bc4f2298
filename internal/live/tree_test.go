package live

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vdm/internal/obs/tree"
	"vdm/internal/overlay"
)

// TestClusterTreeTelemetry is the tree-health acceptance test: a 24-peer
// live cluster reports status over the real runtime, the source-side
// aggregator reconstructs the tree, and the /tree admin route must agree
// with the peers' actual parent/child state, and the online cost must be
// the sum of the parent RTTs the peers reported.
func TestClusterTreeTelemetry(t *testing.T) {
	const (
		nPeers    = 24
		maxDegree = 4
	)
	agg := tree.New(tree.Config{Source: 0, StaleAfterS: 10})
	c := bootCluster(t, ClusterConfig{
		N:             nPeers,
		MaxDegree:     maxDegree,
		StatusPeriod:  50 * time.Millisecond,
		StatusHandler: agg.Handler(),
	})

	// Query the tree the way an operator would: over HTTP.
	mux := http.NewServeMux()
	agg.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	fetchTree := func() tree.Snapshot {
		resp, err := http.Get(srv.URL + "/tree")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap tree.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	// Reconstructed topology == actual topology, edge by edge and child
	// set by child set. Case-II hand-overs and the reports describing
	// them are still in flight right after the joins, so poll until the
	// two agree.
	var snap tree.Snapshot
	var diffs []string
	agreed := pollUntil(10*time.Second, func() bool {
		snap = fetchTree()
		diffs = treeDiffs(snap, c.Views())
		return len(diffs) == 0
	})
	if !agreed {
		t.Fatalf("/tree never matched the peers' views: %v", diffs)
	}
	if snap.Summary.Stale != 0 || snap.Summary.Partitioned != 0 || snap.Summary.Orphans != 0 {
		t.Errorf("settled cluster flagged unhealthy: %+v", snap.Summary)
	}

	// The online (report-derived) cost sums measured parent RTTs: every
	// attached peer reports a positive one, and the summary is their sum.
	var costSum float64
	for _, row := range snap.Peers {
		if row.ID != 0 && !row.Partitioned {
			if row.ParentRTTMS <= 0 {
				t.Errorf("peer %d reports parent RTT %v ms, want > 0", row.ID, row.ParentRTTMS)
			}
			costSum += row.ParentRTTMS
		}
	}
	if math.Abs(snap.Summary.CostMS-costSum) > 1e-9 {
		t.Errorf("summary cost %v != Σ parent RTT %v", snap.Summary.CostMS, costSum)
	}

	// /health agrees.
	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/health = %d on a settled cluster", resp.StatusCode)
	}
}

// treeDiffs lists where the /tree rows disagree with the peers' views:
// peer set, parent pointers and child sets.
func treeDiffs(snap tree.Snapshot, views []overlay.TreeView) []string {
	if len(snap.Peers) != len(views) {
		return []string{fmt.Sprintf("/tree reports %d peers, cluster has %d", len(snap.Peers), len(views))}
	}
	var diffs []string
	for _, row := range snap.Peers {
		if row.ID < 0 || row.ID >= int64(len(views)) {
			diffs = append(diffs, fmt.Sprintf("/tree invented peer %d", row.ID))
			continue
		}
		v := views[row.ID]
		if row.ID != 0 && row.Parent != int64(v.ParentID()) {
			diffs = append(diffs, fmt.Sprintf("peer %d: reported parent %d, actual %d", row.ID, row.Parent, v.ParentID()))
		}
		want := map[int64]bool{}
		for _, ch := range v.ChildIDs() {
			want[int64(ch)] = true
		}
		same := len(row.Children) == len(want)
		for _, ch := range row.Children {
			same = same && want[ch]
		}
		if !same {
			diffs = append(diffs, fmt.Sprintf("peer %d: reported children %v, actual %v", row.ID, row.Children, v.ChildIDs()))
		}
	}
	return diffs
}
