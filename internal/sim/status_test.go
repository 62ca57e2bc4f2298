package sim

import (
	"testing"

	"vdm/internal/obs/tree"
	"vdm/internal/overlay"
)

// TestStatusReportsFeedTreeAggregator runs a session with the tree-health
// telemetry on and checks the aggregator — fed synchronously on the
// virtual clock, the same StatusReport schema the live runtime sends over
// UDP — reconstructs the final tree the session itself reports.
func TestStatusReportsFeedTreeAggregator(t *testing.T) {
	agg := tree.New(tree.Config{Source: 0, StaleAfterS: 60})

	cfg := smokeConfig(VDM)
	cfg.ChurnPct = 0
	cfg.StatusPeriodS = 30
	cfg.StatusHandler = agg.Handler()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	snap := agg.Snapshot()
	if snap.Summary.Members < cfg.Nodes {
		t.Fatalf("aggregator heard %d members, session had %d peers", snap.Summary.Members, cfg.Nodes)
	}
	// No churn: at the final reports every peer is attached, so the
	// aggregator's reachable count matches the session's.
	if snap.Summary.Reachable != res.FinalReachable {
		t.Fatalf("aggregator reachable=%d, session reachable=%d", snap.Summary.Reachable, res.FinalReachable)
	}
	if snap.Summary.Partitioned != 0 || snap.Summary.Orphans != 0 {
		t.Fatalf("healthy session flagged unhealthy: %+v", snap.Summary)
	}

	// Per-edge check: the reconstructed parents match the session's final
	// tree (both are end-of-session state: the last reports land after
	// the last membership change).
	parents := make(map[int64]int64)
	for _, p := range snap.Peers {
		parents[p.ID] = p.Parent
	}
	for _, e := range res.FinalTree {
		if got := parents[int64(e.Child)]; got != int64(e.Parent) {
			t.Fatalf("node %d: aggregator parent %d, session parent %d", e.Child, got, e.Parent)
		}
	}
}

// TestStatusReportingOffByDefault guards the byte-identical-output
// promise: a zero StatusPeriodS must not emit a single report.
func TestStatusReportingOffByDefault(t *testing.T) {
	called := 0
	cfg := smokeConfig(VDM)
	cfg.DurationS = 300
	cfg.StatusHandler = func(float64, overlay.NodeID, overlay.StatusReport) { called++ }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if called != 0 {
		t.Fatalf("handler called %d times with reporting disabled", called)
	}
}

// TestStatusReportsFollowRejoinedSlots runs the aggregator under churn,
// where a slot that leaves and joins again reports under the same id as
// its earlier membership: the aggregator must take the new membership's
// reports, so its parents match the session's final tree.
func TestStatusReportsFollowRejoinedSlots(t *testing.T) {
	agg := tree.New(tree.Config{Source: 0, StaleAfterS: 60})
	cfg := smokeConfig(VDM)
	cfg.StatusPeriodS = 30
	cfg.StatusHandler = agg.Handler()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parents := make(map[int64]int64)
	for _, p := range agg.Snapshot().Peers {
		parents[p.ID] = p.Parent
	}
	for _, e := range res.FinalTree {
		if got := parents[int64(e.Child)]; got != int64(e.Parent) {
			t.Errorf("node %d: aggregator parent %d, session parent %d", e.Child, got, e.Parent)
		}
	}
}
