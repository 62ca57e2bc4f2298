package core

import (
	"fmt"
	"strings"
	"testing"

	"vdm/internal/obs"
	"vdm/internal/protocoltest"
)

// TestEmitUntracedAllocatesNothing: with no tracer installed emit returns
// before it formats the join id — one string per join event of a
// 20 000-peer session, written for nobody.
func TestEmitUntracedAllocatesNothing(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}, nil)
	r.joinAll(1)
	n := r.nodes[1]
	if n.JoinID() == 0 {
		t.Fatal("the node ran no join, so there is no id to format")
	}
	allocs := testing.AllocsPerRun(100, func() {
		n.emit(obs.EvJoinStep, obs.Event{Target: 0, Step: 1, Detail: "join"})
	})
	if allocs != 0 {
		t.Fatalf("emit on an untraced node allocated %v objects, want 0", allocs)
	}
}

// TestTracedJoinEventsCarryJoinID: the guard must not cost a traced run its
// correlation key. Every event of the join machinery — through a Case III
// descent, a degree-full fallback, a leave and the orphans' reconnects —
// carries the id of the procedure it belongs to, which names its own node.
func TestTracedJoinEventsCarryJoinID(t *testing.T) {
	points := []protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 25, Y: 0}, {X: 40, Y: 0}, {X: 0, Y: 12}, {X: -8, Y: -6}}
	r := newVDMRig(t, points, []int{2, 2, 2, 2, 2, 2})
	var events []obs.Event
	sink := obs.FuncSink(func(e obs.Event) { events = append(events, e) })
	for id, n := range r.nodes {
		n.SetTracer(obs.NewTracer(sink, "vdm", id, r.Net.Now))
	}
	r.joinAll(1, 2, 3, 4, 5)
	r.nodes[1].Leave()
	r.Run(r.Sim.Now() + 60)

	joinTypes := map[string]bool{
		obs.EvJoinStart: true, obs.EvJoinStep: true, obs.EvJoinTimeout: true, obs.EvJoinDecide: true,
		obs.EvJoinConnect: true, obs.EvJoinDone: true, obs.EvJoinRestart: true, obs.EvRefineSwitch: true,
		obs.EvOrphaned: true,
	}
	seen := map[string]int{}
	for _, e := range events {
		if !joinTypes[e.Type] {
			continue
		}
		seen[e.Type]++
		if e.Type == obs.EvOrphaned {
			continue // stamped with the finished join's id, or none yet
		}
		if !strings.HasPrefix(e.JoinID, fmt.Sprintf("%d:", e.Node)) || strings.HasSuffix(e.JoinID, ":0") {
			t.Fatalf("%s event of node %d carries join_id %q", e.Type, e.Node, e.JoinID)
		}
	}
	for _, typ := range []string{obs.EvJoinStart, obs.EvJoinStep, obs.EvJoinDecide, obs.EvJoinConnect, obs.EvJoinDone, obs.EvOrphaned} {
		if seen[typ] == 0 {
			t.Fatalf("the session emitted no %s event", typ)
		}
	}
}
