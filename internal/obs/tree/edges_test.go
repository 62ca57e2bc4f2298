package tree

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vdm/internal/obs"
	"vdm/internal/overlay"
)

// feedFlow ingests the 5-peer tree from feed() with flow telemetry on
// every report: a clean session except where a test overrides a report.
//
//	0 ── 1 ── 3
//	 └── 2 ── 4
func feedFlow(a *Aggregator, at float64, seq uint32) {
	a.Ingest(at, 0, overlay.StatusReport{
		Seq: seq, Parent: overlay.None, Connected: true,
		Children: []overlay.ChildInfo{{ID: 1, Dist: 10}, {ID: 2, Dist: 20}},
		FlowOn:   true, FlowBaseRate: 1000,
		ChildFlows: []overlay.ChildFlowStatus{
			{ID: 1, RateChunksPerS: 1000}, {ID: 2, RateChunksPerS: 1000},
		},
	})
	a.Ingest(at, 1, overlay.StatusReport{
		Seq: seq, Parent: 0, ParentDist: 10, Connected: true,
		Children: []overlay.ChildInfo{{ID: 3, Dist: 30}},
		FlowOn:   true, FlowBaseRate: 1000,
		ChildFlows: []overlay.ChildFlowStatus{{ID: 3, RateChunksPerS: 1000}},
	})
	a.Ingest(at, 2, overlay.StatusReport{
		Seq: seq, Parent: 0, ParentDist: 20, Connected: true,
		Children: []overlay.ChildInfo{{ID: 4, Dist: 40}},
		FlowOn:   true, FlowBaseRate: 1000,
		ChildFlows: []overlay.ChildFlowStatus{{ID: 4, RateChunksPerS: 1000}},
	})
	a.Ingest(at, 3, overlay.StatusReport{
		Seq: seq, Parent: 1, ParentDist: 30, Connected: true, FlowOn: true,
	})
	a.Ingest(at, 4, overlay.StatusReport{
		Seq: seq, Parent: 2, ParentDist: 40, Connected: true, FlowOn: true,
	})
}

func edgeByChild(t *testing.T, es EdgesSnapshot, child int64) EdgeHealth {
	t.Helper()
	for _, e := range es.Edges {
		if e.Child == child {
			return e
		}
	}
	t.Fatalf("no edge with child %d in %+v", child, es.Edges)
	return EdgeHealth{}
}

func TestEdgesCleanTree(t *testing.T) {
	a := New(Config{Source: 0})
	feedFlow(a, 100, 1)
	es := a.Edges()
	if es.Summary.Total != 4 || es.Summary.OK != 4 {
		t.Fatalf("summary = %+v, want 4 ok edges", es.Summary)
	}
	for _, e := range es.Edges {
		if e.Status != EdgeOK || e.Score != 1 {
			t.Fatalf("edge %d→%d = %s score %g, want clean", e.Parent, e.Child, e.Status, e.Score)
		}
	}
}

// TestEdgesAttributeLossToOneEdge injects NACK traffic on exactly the 2→4
// edge — the child reports nacks sent, the parent's row reports nacks
// received — and expects that edge, and only that edge, to degrade.
func TestEdgesAttributeLossToOneEdge(t *testing.T) {
	a := New(Config{Source: 0})
	feedFlow(a, 100, 1)
	a.Ingest(105, 2, overlay.StatusReport{
		Seq: 2, Parent: 0, ParentDist: 20, Connected: true,
		Children: []overlay.ChildInfo{{ID: 4, Dist: 40}},
		FlowOn:   true, FlowBaseRate: 1000,
		ChildFlows: []overlay.ChildFlowStatus{
			{ID: 4, RateChunksPerS: 1000, Nacks: 7},
		},
	})
	a.Ingest(105, 4, overlay.StatusReport{
		Seq: 2, Parent: 2, ParentDist: 40, Connected: true,
		FlowOn: true, NacksSent: 7, FECRepairs: 2,
	})

	es := a.Edges()
	bad := edgeByChild(t, es, 4)
	if bad.Status != EdgeLossy {
		t.Fatalf("edge 2→4 = %s, want lossy", bad.Status)
	}
	if bad.NacksSent != 7 || bad.NacksFromChild != 7 || bad.FECRepairs != 2 {
		t.Fatalf("evidence = %+v", bad)
	}
	if es.Summary.Lossy != 1 || es.Summary.OK != 3 {
		t.Fatalf("summary = %+v, want exactly one lossy edge", es.Summary)
	}

	// The loss stops; once the activity stamps age out of the staleness
	// window (reports still flowing), the edge is clean again.
	feedFlow(a, 125, 3)
	if e := edgeByChild(t, a.Edges(), 4); e.Status != EdgeOK {
		t.Fatalf("edge 2→4 after quiet period = %s, want ok", e.Status)
	}
}

func TestEdgesThrottledAndPulling(t *testing.T) {
	a := New(Config{Source: 0})
	feedFlow(a, 100, 1)
	// Pushback halved 0's rate toward 1; 3 stopped trusting its uplink
	// and pulled from its repair neighbor.
	a.Ingest(105, 0, overlay.StatusReport{
		Seq: 2, Parent: overlay.None, Connected: true,
		Children: []overlay.ChildInfo{{ID: 1, Dist: 10}, {ID: 2, Dist: 20}},
		FlowOn:   true, FlowBaseRate: 1000,
		ChildFlows: []overlay.ChildFlowStatus{
			{ID: 1, RateChunksPerS: 500, Pushbacks: 1},
			{ID: 2, RateChunksPerS: 1000},
		},
	})
	a.Ingest(105, 3, overlay.StatusReport{
		Seq: 2, Parent: 1, ParentDist: 30, Connected: true,
		FlowOn: true, NacksSent: 3, StallPulls: 3,
	})

	es := a.Edges()
	if e := edgeByChild(t, es, 1); e.Status != EdgeThrottled {
		t.Fatalf("edge 0→1 = %s, want throttled", e.Status)
	}
	// Pulling outranks the lossy evidence its own nacks produce.
	if e := edgeByChild(t, es, 3); e.Status != EdgePulling {
		t.Fatalf("edge 1→3 = %s, want pulling", e.Status)
	}
	if e := edgeByChild(t, es, 2); e.Status != EdgeOK {
		t.Fatalf("edge 0→2 = %s, want ok", e.Status)
	}
}

// TestEdgesReformedEdgeStampsActivity walks one sender row's NACK total
// through each change: a rise is loss on the edge; a fall means the edge
// re-formed and counts afresh, which is activity only if the new total is
// non-zero. nacks_from_child always shows the row's total.
func TestEdgesReformedEdgeStampsActivity(t *testing.T) {
	a := New(Config{Source: 0, StaleAfterS: 10})
	for i, step := range []struct {
		at    float64
		nacks int64
		want  string
	}{
		{100, 0, EdgeOK},
		{101, 9, EdgeLossy}, // rose
		{112, 9, EdgeOK},    // unchanged: the stamp at 101 aged out
		{113, 2, EdgeLossy}, // fell to non-zero: re-formed, then NACKed
		{124, 0, EdgeOK},    // fell to zero: re-formed and quiet
	} {
		seq := uint32(i + 1)
		a.Ingest(step.at, 2, overlay.StatusReport{
			Seq: seq, Parent: 0, ParentDist: 20, Connected: true,
			Children: []overlay.ChildInfo{{ID: 4, Dist: 40}},
			FlowOn:   true, FlowBaseRate: 1000,
			ChildFlows: []overlay.ChildFlowStatus{{ID: 4, RateChunksPerS: 1000, Nacks: step.nacks}},
		})
		a.Ingest(step.at, 4, overlay.StatusReport{
			Seq: seq, Parent: 2, ParentDist: 40, Connected: true, FlowOn: true,
		})
		e := edgeByChild(t, a.Edges(), 4)
		if e.Status != step.want || e.NacksFromChild != step.nacks {
			t.Fatalf("at %g (total %d): edge 2→4 = %s with nacks_from_child %d, want %s with %d",
				step.at, step.nacks, e.Status, e.NacksFromChild, step.want, step.nacks)
		}
	}
}

// TestEdgesChurnStalenessAndRecovery is the partition-under-churn case:
// a child's reports stop, its edge goes dead once the staleness window
// passes, and the edge recovers as soon as fresh reports resume.
func TestEdgesChurnStalenessAndRecovery(t *testing.T) {
	a := New(Config{Source: 0, StaleAfterS: 10, Now: nil})
	feedFlow(a, 100, 1)

	// Everyone but 4 keeps reporting; 4 falls silent past the window.
	for i, at := range []float64{106, 112, 118} {
		seq := uint32(2 + i)
		a.Ingest(at, 0, overlay.StatusReport{
			Seq: seq, Parent: overlay.None, Connected: true,
			Children: []overlay.ChildInfo{{ID: 1, Dist: 10}, {ID: 2, Dist: 20}},
			FlowOn:   true, FlowBaseRate: 1000,
			ChildFlows: []overlay.ChildFlowStatus{
				{ID: 1, RateChunksPerS: 1000}, {ID: 2, RateChunksPerS: 1000},
			},
		})
		a.Ingest(at, 1, overlay.StatusReport{
			Seq: seq, Parent: 0, ParentDist: 10, Connected: true,
			Children: []overlay.ChildInfo{{ID: 3, Dist: 30}},
			FlowOn:   true, FlowBaseRate: 1000,
			ChildFlows: []overlay.ChildFlowStatus{{ID: 3, RateChunksPerS: 1000}},
		})
		a.Ingest(at, 2, overlay.StatusReport{
			Seq: seq, Parent: 0, ParentDist: 20, Connected: true,
			Children: []overlay.ChildInfo{{ID: 4, Dist: 40}},
			FlowOn:   true, FlowBaseRate: 1000,
			ChildFlows: []overlay.ChildFlowStatus{{ID: 4, RateChunksPerS: 1000}},
		})
		a.Ingest(at, 3, overlay.StatusReport{
			Seq: seq, Parent: 1, ParentDist: 30, Connected: true, FlowOn: true,
		})
	}

	es := a.Edges()
	if e := edgeByChild(t, es, 4); e.Status != EdgeDead || !e.ChildStale || e.Score != 0 {
		t.Fatalf("silent child's edge = %+v, want dead+stale", e)
	}
	if es.Summary.Dead != 1 || es.Summary.OK != 3 {
		t.Fatalf("summary = %+v, want one dead edge", es.Summary)
	}

	// 4 comes back (rejoined under 1 after the churn) — its old edge
	// under 2 disappears once 2 stops listing it, and the new edge is
	// healthy immediately.
	a.Ingest(120, 2, overlay.StatusReport{
		Seq: 5, Parent: 0, ParentDist: 20, Connected: true,
		FlowOn: true, FlowBaseRate: 1000,
	})
	a.Ingest(120, 1, overlay.StatusReport{
		Seq: 5, Parent: 0, ParentDist: 10, Connected: true,
		Children: []overlay.ChildInfo{{ID: 3, Dist: 30}, {ID: 4, Dist: 35}},
		FlowOn:   true, FlowBaseRate: 1000,
		ChildFlows: []overlay.ChildFlowStatus{
			{ID: 3, RateChunksPerS: 1000}, {ID: 4, RateChunksPerS: 1000},
		},
	})
	a.Ingest(120, 4, overlay.StatusReport{
		Seq: 2, Parent: 1, ParentDist: 35, Connected: true, FlowOn: true,
	})

	es = a.Edges()
	e := edgeByChild(t, es, 4)
	if e.Parent != 1 || e.Status != EdgeOK {
		t.Fatalf("recovered edge = %+v, want ok under parent 1", e)
	}
	if es.Summary.Dead != 0 {
		t.Fatalf("summary after recovery = %+v", es.Summary)
	}
}

// TestEdgesDeadWhenChildNeverReported covers the sender-only half: a
// parent lists a child the aggregator has never heard from.
func TestEdgesDeadWhenChildNeverReported(t *testing.T) {
	a := New(Config{Source: 0})
	a.Ingest(100, 0, overlay.StatusReport{
		Seq: 1, Parent: overlay.None, Connected: true,
		Children: []overlay.ChildInfo{{ID: 9, Dist: 10}},
		FlowOn:   true, FlowBaseRate: 1000,
		ChildFlows: []overlay.ChildFlowStatus{{ID: 9, RateChunksPerS: 1000, Stalled: true}},
	})
	es := a.Edges()
	e := edgeByChild(t, es, 9)
	if e.Status != EdgeDead || e.ChildAgeS != -1 || !e.Stalled {
		t.Fatalf("edge to silent child = %+v, want dead", e)
	}
}

func TestEdgesRouteAndMetrics(t *testing.T) {
	a := New(Config{Source: 0})
	reg := obs.NewRegistry()
	a.RegisterMetrics(reg)
	feedFlow(a, 100, 1)
	a.Ingest(105, 4, overlay.StatusReport{
		Seq: 2, Parent: 2, ParentDist: 40, Connected: true,
		FlowOn: true, NacksSent: 5,
	})

	mux := http.NewServeMux()
	a.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/edges")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var es EdgesSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&es); err != nil {
		t.Fatal(err)
	}
	if es.Summary.Total != 4 || es.Summary.Lossy != 1 {
		t.Fatalf("/edges summary = %+v", es.Summary)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"vdm_edge_count 4",
		"vdm_edge_lossy 1",
		"vdm_edge_ok 3",
		`vdm_edge_score{child="4",parent="2"} 0.5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, "(no description registered)") {
		t.Error("vdm_edge_* family missing HELP text")
	}
}
