package tree

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"vdm/internal/obs"
	"vdm/internal/overlay"
)

// feedLine ingests a fixed 5-peer chain-and-fan tree:
//
//	0 ── 1 ── 3
//	 └── 2 ── 4
//
// with per-link RTTs 10/20/30/40 ms and direct source RTTs chosen so the
// stretch proxies are exact.
func feed(a *Aggregator, at float64) {
	a.Ingest(at, 0, overlay.StatusReport{
		Seq: 1, Parent: overlay.None, Connected: true,
		Children: []overlay.ChildInfo{{ID: 1, Dist: 10}, {ID: 2, Dist: 20}},
	})
	a.Ingest(at, 1, overlay.StatusReport{
		Seq: 1, Parent: 0, ParentDist: 10, SrcDist: 10, Depth: 1, MaxDegree: 4, Free: 3,
		Connected: true, Children: []overlay.ChildInfo{{ID: 3, Dist: 30}},
		Received: 100, Forwarded: 100,
	})
	a.Ingest(at, 2, overlay.StatusReport{
		Seq: 1, Parent: 0, ParentDist: 20, SrcDist: 20, Depth: 1, MaxDegree: 4, Free: 3,
		Connected: true, Children: []overlay.ChildInfo{{ID: 4, Dist: 40}},
	})
	a.Ingest(at, 3, overlay.StatusReport{
		Seq: 1, Parent: 1, ParentDist: 30, SrcDist: 20, Depth: 2, MaxDegree: 4, Free: 4,
		Connected: true,
	})
	a.Ingest(at, 4, overlay.StatusReport{
		Seq: 1, Parent: 2, ParentDist: 40, SrcDist: 30, Depth: 2, MaxDegree: 4, Free: 4,
		Connected: true,
	})
}

func TestSnapshotReconstructsTreeAndMetrics(t *testing.T) {
	a := New(Config{Source: 0})
	feed(a, 100)
	snap := a.Snapshot()

	s := snap.Summary
	if s.Members != 5 || s.Reachable != 4 || s.Stale != 0 || s.Partitioned != 0 || s.Orphans != 0 {
		t.Fatalf("bad population: %+v", s)
	}
	if s.CostMS != 10+20+30+40 {
		t.Fatalf("cost = %v", s.CostMS)
	}
	if s.MaxDepth != 2 || s.AvgDepth != 1.5 {
		t.Fatalf("depth: max=%d avg=%v", s.MaxDepth, s.AvgDepth)
	}
	if len(s.DepthCounts) != 2 || s.DepthCounts[0] != 2 || s.DepthCounts[1] != 2 {
		t.Fatalf("depth counts: %v", s.DepthCounts)
	}
	// Stretch proxies: node1 10/10=1, node2 20/20=1, node3 (10+30)/20=2,
	// node4 (20+40)/30=2 → avg 1.5, max 2.
	if s.StretchProxyAvg != 1.5 || s.StretchProxyMax != 2 {
		t.Fatalf("stretch proxy: avg=%v max=%v", s.StretchProxyAvg, s.StretchProxyMax)
	}
	if s.MaxFanout != 2 || s.AvgFanout != (2+1+1)/3.0 {
		t.Fatalf("fanout: max=%d avg=%v", s.MaxFanout, s.AvgFanout)
	}

	byID := make(map[int64]PeerHealth)
	for _, p := range snap.Peers {
		byID[p.ID] = p
	}
	if p := byID[3]; p.Depth != 2 || p.PathRTTMS != 40 || p.StretchProxy != 2 || p.Parent != 1 {
		t.Fatalf("peer 3: %+v", p)
	}
	if p := byID[1]; p.FwdTotal != 100 || p.RecvTotal != 100 || p.Reports != 1 {
		t.Fatalf("peer 1 totals: %+v", p)
	}
	if p := byID[0]; p.Depth != 0 || len(p.Children) != 2 {
		t.Fatalf("source row: %+v", p)
	}
}

func TestStaleAndPartitionedFlags(t *testing.T) {
	a := New(Config{Source: 0, StaleAfterS: 5})
	feed(a, 100)
	// Node 4's parent (2) goes silent conceptually; node 5 reports a
	// parent the aggregator never heard from.
	a.Ingest(106, 5, overlay.StatusReport{
		Seq: 1, Parent: 9, ParentDist: 5, Connected: true,
	})
	// Clock is now 106 (newest ingest): the first five rows are 6 s old.
	snap := a.Snapshot()
	s := snap.Summary
	if s.Stale != 4 { // nodes 1-4; the source row is exempt from the stale count
		t.Fatalf("stale = %d, want 4", s.Stale)
	}
	if s.Partitioned != 1 {
		t.Fatalf("partitioned = %d, want 1", s.Partitioned)
	}
	for _, p := range snap.Peers {
		if p.ID == 5 && !p.Partitioned {
			t.Fatalf("peer 5 not flagged partitioned: %+v", p)
		}
	}

	// A fresh round of reports clears the staleness; node 5 (last heard
	// at 106) is the only one now outside the window.
	feed(a, 112)
	if s := a.Snapshot().Summary; s.Stale != 1 {
		t.Fatalf("stale after refresh = %d, want 1", s.Stale)
	}
}

// TestRepeatedReportChangesOnlyLiveness re-delivers a report (a UDP
// retransmit): the peer's age and report count move, nothing else does,
// and the next report's totals replace the stored ones.
func TestRepeatedReportChangesOnlyLiveness(t *testing.T) {
	a := New(Config{Source: 0})
	r := overlay.StatusReport{
		Seq: 1, Parent: 0, ParentDist: 10, Connected: true, Received: 50,
		FlowOn: true, NacksSent: 2,
	}
	a.Ingest(1, 1, r)
	before, edgesBefore := peerRow(t, a, 1), a.Edges()
	a.Ingest(1.5, 1, r)
	after := peerRow(t, a, 1)
	if after.Reports != 2 || after.AgeS != 0 {
		t.Fatalf("repeat did not refresh liveness: %+v", after)
	}
	after.Reports, after.AgeS = before.Reports, before.AgeS
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("repeat changed the row:\n%+v\nwant\n%+v", after, before)
	}
	edgesAfter := a.Edges()
	edgesAfter.AtS = edgesBefore.AtS
	edgesAfter.Edges[0].ChildAgeS = edgesBefore.Edges[0].ChildAgeS
	if !reflect.DeepEqual(edgesAfter, edgesBefore) {
		t.Fatalf("repeat changed the edges:\n%+v\nwant\n%+v", edgesAfter, edgesBefore)
	}
	r.Seq = 2
	r.Received = 75
	a.Ingest(2, 1, r)
	if p := peerRow(t, a, 1); p.RecvTotal != 75 {
		t.Fatalf("recv total = %d, want 75", p.RecvTotal)
	}
}

// TestOlderReportKeepsNewerState delivers a peer's reports out of order:
// the late, older report refreshes the peer's liveness but its tree
// position and totals never replace the newer ones.
func TestOlderReportKeepsNewerState(t *testing.T) {
	a := New(Config{Source: 0, StaleAfterS: 5})
	a.Ingest(10, 0, overlay.StatusReport{Seq: 1, Parent: overlay.None, Connected: true})
	a.Ingest(10, 1, overlay.StatusReport{
		Seq: 3, Parent: 0, ParentDist: 10, Depth: 1, Connected: true,
		Received: 300, Forwarded: 120, Dups: 4, FlowOn: true, NacksSent: 6, FECRepairs: 2,
	})
	a.Ingest(16, 1, overlay.StatusReport{
		Seq: 2, Parent: 7, ParentDist: 99, Depth: 3, Connected: true,
		Received: 200, Forwarded: 80, Dups: 3, FlowOn: true, NacksSent: 5, FECRepairs: 1,
	})
	p := peerRow(t, a, 1)
	if p.Parent != 0 || p.Depth != 1 || p.ParentRTTMS != 10 || p.Partitioned {
		t.Fatalf("older report moved the peer: %+v", p)
	}
	if p.RecvTotal != 300 || p.FwdTotal != 120 || p.DupTotal != 4 {
		t.Fatalf("older report changed the totals: %+v", p)
	}
	if p.Stale || p.AgeS != 0 || p.Reports != 2 {
		t.Fatalf("older report did not refresh liveness: %+v", p)
	}
	if e := edgeByChild(t, a.Edges(), 1); e.Parent != 0 || e.NacksSent != 6 || e.FECRepairs != 2 {
		t.Fatalf("older report changed the edge evidence: %+v", e)
	}
}

// peerRow returns peer id's row of the aggregator's snapshot.
func peerRow(t *testing.T, a *Aggregator, id int64) PeerHealth {
	t.Helper()
	for _, p := range a.Snapshot().Peers {
		if p.ID == id {
			return p
		}
	}
	t.Fatalf("no row for peer %d", id)
	return PeerHealth{}
}

func TestRegisterMetricsExposesTreeFamily(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(Config{Source: 0})
	a.RegisterMetrics(reg)
	feed(a, 100)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"vdm_tree_members 5",
		"vdm_tree_reachable 4",
		"vdm_tree_cost_ms 100",
		"vdm_tree_depth_max 2",
		`vdm_tree_depth_peers{depth="1"} 2`,
		`vdm_tree_depth_peers{depth="2"} 2`,
		"vdm_tree_reports_total 5",
		"# HELP vdm_tree_members",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	h := reg.Histogram("vdm_tree_parent_rtt_ms", obs.LatencyBucketsMS)
	if s := h.Snapshot(); s.Count != 4 || s.Sum != 100 {
		t.Fatalf("parent rtt histogram: %+v", s)
	}
}

func TestAdminRoutes(t *testing.T) {
	a := New(Config{Source: 0})
	feed(a, 100)
	mux := http.NewServeMux()
	a.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/tree")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Summary.Members != 5 || len(snap.Peers) != 5 {
		t.Fatalf("/tree payload: %+v", snap.Summary)
	}

	resp, err = http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/health = %d on a healthy tree", resp.StatusCode)
	}

	// A partitioned peer degrades health.
	a.Ingest(100, 9, overlay.StatusReport{Seq: 1, Parent: 77, Connected: true})
	resp, err = http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("/health = %d %v on a partitioned tree", resp.StatusCode, body)
	}
}

func TestLoopDoesNotHang(t *testing.T) {
	a := New(Config{Source: 0})
	a.Ingest(1, 1, overlay.StatusReport{Seq: 1, Parent: 2, ParentDist: 1, Connected: true})
	a.Ingest(1, 2, overlay.StatusReport{Seq: 1, Parent: 1, ParentDist: 1, Connected: true})
	snap := a.Snapshot()
	if snap.Summary.Partitioned != 2 {
		t.Fatalf("loop peers not flagged partitioned: %+v", snap.Summary)
	}
	for _, p := range snap.Peers {
		if p.Depth != -1 || math.IsNaN(p.StretchProxy) {
			t.Fatalf("loop peer row: %+v", p)
		}
	}
}
