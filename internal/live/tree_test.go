package live

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vdm/internal/flow"
	"vdm/internal/obs/tree"
	"vdm/internal/overlay"
	"vdm/internal/wire"
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

// TestClusterLostReportsLoseNoCounts drops every third status report on
// its way into the aggregator while a stream with one lossy edge runs.
// Reports carry totals, so once the stream has stopped and later reports
// have landed, every peer's recv/fwd/dup totals on /tree equal its own
// Stats, its uplink evidence on /edges equals its FlowStats, and each
// sender row equals the peer's newest composed report.
func TestClusterLostReportsLoseNoCounts(t *testing.T) {
	const nPeers = 9
	agg := tree.New(tree.Config{Source: 0, StaleAfterS: 10})
	ingest := agg.Handler()
	var (
		mu      sync.Mutex
		newest  = map[overlay.NodeID]overlay.StatusReport{} // composed, dropped or not
		dropped int
	)
	c := bootCluster(t, ClusterConfig{
		N:            nPeers,
		MaxDegree:    2,
		Flow:         &flow.Config{RateChunksPerS: 20000, FECGroup: 8},
		StatusPeriod: 50 * time.Millisecond,
		StatusHandler: func(at float64, from overlay.NodeID, r overlay.StatusReport) {
			mu.Lock()
			if r.Seq > newest[from].Seq {
				newest[from] = r
			}
			drop := r.Seq%3 == 1
			if drop {
				dropped++
			}
			mu.Unlock()
			if !drop {
				ingest(at, from, r)
			}
		},
	})

	// Lose every third stream-data frame sent to a depth-2 leaf, so NACK,
	// FEC and retransmit counters move around one peer. Every peer's
	// socket drops them, not only the parent's: a splice still in flight
	// when the cluster reports connected can move the leaf under a new
	// parent after it is picked (seen in 1 of 120 boots of this cluster
	// under -race), and a filter on the old parent alone then drops
	// nothing.
	victim, parent := overlay.None, overlay.None
	hasChild := map[overlay.NodeID]bool{}
	for _, v := range c.Views() {
		hasChild[v.ParentID()] = true
	}
	for _, v := range c.Views() {
		if v.ID() != 0 && v.ParentID() != 0 && !hasChild[v.ID()] {
			victim, parent = v.ID(), v.ParentID()
			break
		}
	}
	if victim == overlay.None {
		t.Fatal("no depth-2 leaf in a degree-2 tree of 9 peers")
	}
	var frames atomic.Int64
	for _, tr := range c.Trs {
		tr.SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
			return to == victim && f.Kind == wire.KindMsg && overlay.IsStreamData(f.Msg) &&
				frames.Add(1)%3 == 0
		})
	}
	if err := c.Stream(400, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	mismatches := func() []string {
		snap, edges := agg.Snapshot(), agg.Edges()
		// Copy under the lock, and never hold it across Stats: that waits
		// on the source's mailbox, whose goroutine runs the handler.
		mu.Lock()
		composed := maps.Clone(newest)
		mu.Unlock()
		var diffs []string
		for id, p := range c.Peers {
			st, fs := p.Stats(), p.FlowStats()
			var row *tree.PeerHealth
			for i := range snap.Peers {
				if snap.Peers[i].ID == int64(id) {
					row = &snap.Peers[i]
				}
			}
			if row == nil {
				diffs = append(diffs, fmt.Sprintf("peer %d: no /tree row", id))
				continue
			}
			if row.RecvTotal != st.Received || row.FwdTotal != st.Forwarded || row.DupTotal != st.Dups {
				diffs = append(diffs, fmt.Sprintf("peer %d: /tree recv/fwd/dup %d/%d/%d, Stats %d/%d/%d",
					id, row.RecvTotal, row.FwdTotal, row.DupTotal, st.Received, st.Forwarded, st.Dups))
			}
			for _, e := range edges.Edges {
				if e.Child == int64(id) && e.Parent == row.Parent &&
					(e.NacksSent != fs.NacksSent || e.StallPulls != fs.StallPulls ||
						e.FECRepairs != fs.FECRepairs || e.Skipped != fs.SkippedSeqs) {
					diffs = append(diffs, fmt.Sprintf("edge %d→%d: nacks/pulls/fec/skipped %d/%d/%d/%d, FlowStats %d/%d/%d/%d",
						e.Parent, e.Child, e.NacksSent, e.StallPulls, e.FECRepairs, e.Skipped,
						fs.NacksSent, fs.StallPulls, fs.FECRepairs, fs.SkippedSeqs))
				}
			}
			for _, cf := range composed[overlay.NodeID(id)].ChildFlows {
				for _, e := range edges.Edges {
					if e.Parent == int64(id) && e.Child == int64(cf.ID) &&
						(e.NacksFromChild != cf.Nacks || e.Pushbacks != cf.Pushbacks) {
						diffs = append(diffs, fmt.Sprintf("edge %d→%d: nacks_from_child/pushbacks %d/%d, newest report %d/%d",
							id, cf.ID, e.NacksFromChild, e.Pushbacks, cf.Nacks, cf.Pushbacks))
					}
				}
			}
		}
		return diffs
	}
	var diffs []string
	if !pollUntil(5*time.Second, func() bool { diffs = mismatches(); return len(diffs) == 0 }) {
		t.Fatalf("aggregator totals never matched the peers' counters:\n%s", strings.Join(diffs, "\n"))
	}
	mu.Lock()
	n := dropped
	mu.Unlock()
	if fs := c.Peers[victim].FlowStats(); fs.NacksSent == 0 || n < nPeers {
		t.Fatalf("nothing exercised: victim %d (parent %d when picked, %d now) sent %d NACKs, %d reports dropped",
			victim, parent, c.Peers[victim].View().ParentID(), fs.NacksSent, n)
	}
}
